"""Hyperbolic Poisson kernel and harmonic measure of planar regions.

The kernel of the upper half-space at p = (x, y, z) is

    P_p(xi, eta) = (1/pi) * [ z / ((x-xi)^2 + (y-eta)^2 + z^2) ]^2,

normalized to unit mass over the plane.  The harmonic measure of a region is
the Poisson integral of its indicator; it equals the fraction of geodesic
rays from p that land in the region, lies strictly between 0 and 1, and is
harmonic in p.

Evaluation strategy: polar coordinates about the kernel's foot point (x, y).
Along each ray the kernel mass has a closed-form antiderivative, and the
indicator only changes across primitive boundaries, whose crossing radii are
roots of quadratics/linear equations — so the radial integral is exact per
ray, out to infinity, including the far-field tail.  The remaining angular
integral is piecewise analytic with kinks at tangency directions; it is done
by adaptive Gauss-Kronrod seeded at the known kink angles.  Gradients use
the analytically differentiated kernel, whose radial antiderivatives are
also closed-form, on the same partition.

Every evaluation goes through :func:`measure_many`, which refines the
angular integrals of all its points together; each point's result does not
depend on the points evaluated with it.

Error accounting is the accumulated Kronrod-Gauss deviation of the angular
integral; the radial direction contributes only roundoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .domains import PlanarDomain
from .hyperbolic import H3Point
from .quadrature import adaptive_integrate, integrate_many

__all__ = [
    "QuadratureConfig",
    "MeasureValue",
    "QuadratureError",
    "poisson_kernel",
    "kernel_mass",
    "harmonic_measure",
    "measure_many",
    "measure_with_gradient",
    "halfplane_closed_form",
    "disk_closed_form",
]

_TWO_PI = 2.0 * math.pi


class QuadratureError(RuntimeError):
    """Raised when a requested tolerance could not be certified."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances of the measure quadrature.

    tolerance : absolute target on the measure value (gradients ride along).
    max_depth : refinement rounds of the angular partition.
    """

    tolerance: float = 1e-7
    max_depth: int = 24

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


@dataclass(frozen=True)
class MeasureValue:
    """A measure evaluation: value, error estimate, and convergence flag."""

    value: float
    error: float
    converged: bool = True


def poisson_kernel(p: H3Point, zeta) -> float | np.ndarray:
    """Kernel density at boundary point(s) ``zeta``; strictly positive."""
    z = np.asarray(zeta)
    den = (p.x - z.real) ** 2 + (p.y - z.imag) ** 2 + p.z**2
    out = (p.z / den) ** 2 / math.pi
    return float(out) if out.shape == () else out


def halfplane_closed_form(p: H3Point) -> float:
    """Harmonic measure of the half-plane {eta > 0}: (y/sqrt(y^2+z^2) + 1)/2."""
    return 0.5 * (p.y / math.hypot(p.y, p.z) + 1.0)


def disk_closed_form(rho: float, z: float) -> float:
    """Harmonic measure of a centered disk of radius rho seen from (0, 0, z)."""
    if rho <= 0 or z <= 0:
        raise ValueError("need rho > 0 and z > 0")
    return rho * rho / (rho * rho + z * z)


# Radial antiderivatives along a ray at height z, t the distance from the foot.

def _cdf(t, z):
    """Of the kernel's radial mass: t^2/(t^2+z^2)."""
    return t * t / (t * t + z * z)


def _ix(t, z):
    """For d/dx, d/dy: integral of t^2 (t^2+z^2)^-3 dt."""
    t2z = t * t + z * z
    return (0.25 * (t / (2.0 * z * z * t2z) + np.arctan(t / z) / (2.0 * z * z * z))
            - t / (4.0 * t2z * t2z))


def _iz(t, z):
    """For d/dz: -z t^2/(t^2+z^2)^2."""
    t2z = t * t + z * z
    return -z * t * t / (t2z * t2z)


def _column(a):
    """Per-row values as a column against (rows, k) arrays; scalars as they are."""
    return a[:, None] if isinstance(a, np.ndarray) else a


class _RayIntegrand:
    """Angular integrand(s) of the polar decomposition about each foot point.

    Built for a batch of points; called with angles and, per angle, the index
    of the point whose ray it is.  Returns the measure density, then d/dx,
    d/dy, d/dz when the gradient is requested.  Radial integrals between
    successive boundary crossings use the closed-form antiderivatives of the
    kernel and of its Cartesian derivatives, including the exact semi-infinite
    tail beyond the last crossing.  Every row depends only on its own angle
    and point.
    """

    def __init__(self, domain: PlanarDomain, points, want_gradient: bool):
        self.domain = domain
        self.foot = np.array([p.foot for p in points])
        self.z = np.array([p.z for p in points])
        feet = set(self.foot.tolist())
        self.shared_foot = feet.pop() if len(feet) == 1 else None
        self.want_gradient = want_gradient
        r = domain.bounding_radius
        base = np.abs(self.foot) + self.z + (r if math.isfinite(r) else 1.0)
        self.far_pad = np.maximum(self.z, base)

    def __call__(self, phis: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # a foot shared by all points (one point, or heights on one vertical
        # line) and the height of a single point enter as scalars; scalars
        # give each row the same bits as per-row arrays, and cost less
        foot = self.foot[rows] if self.shared_foot is None else self.shared_foot
        z, far_pad = ((self.z[0], self.far_pad[0]) if len(self.z) == 1
                      else (self.z[rows], self.far_pad[rows]))
        dirs = np.exp(1j * phis)
        ts = self.domain.ray_crossings(foot, dirs)
        ts[~(ts > 0.0)] = np.nan
        ts = np.sort(ts, axis=1)  # NaN sorts last
        # far radius per ray: beyond every crossing of this ray
        t_far = 1.5 * np.fmax.reduce(ts, axis=1, initial=0.0) + far_pad
        ts = np.where(np.isnan(ts), t_far[:, None], ts)
        edges = np.concatenate([np.zeros((len(phis), 1)), ts], axis=1)

        mids = 0.5 * (edges[:, :-1] + edges[:, 1:])
        inside = self.domain.contains(_column(foot) + mids * dirs[:, None])
        inside_tail = self.domain.contains(foot + (2.0 * t_far) * dirs)

        def inside_sum(antiderivative):
            # sum of the antiderivative's increments over the inside pieces
            steps = antiderivative[:, 1:] - antiderivative[:, :-1]
            return np.where(inside, steps, 0.0).sum(axis=1)

        cdf = _cdf(edges, _column(z))
        d_val = inside_sum(cdf)
        d_val += np.where(inside_tail, 1.0 - cdf[:, -1], 0.0)
        if not self.want_gradient:
            return d_val / _TWO_PI

        out = np.empty((len(phis), 4))
        out[:, 0] = d_val / _TWO_PI
        ix = _ix(edges, _column(z))
        dix = inside_sum(ix)
        dix += np.where(inside_tail, math.pi / (16.0 * z * z * z) - ix[:, -1], 0.0)
        radial = (4.0 * z * z / math.pi) * dix
        out[:, 1] = radial * np.cos(phis)
        out[:, 2] = radial * np.sin(phis)
        iz = _iz(edges, _column(z))
        diz = inside_sum(iz)
        diz += np.where(inside_tail, -iz[:, -1], 0.0)
        out[:, 3] = diz / math.pi
        return out


def _angular_breakpoints(domain: PlanarDomain, foot: complex) -> list[float]:
    angles = {0.0, math.pi, _TWO_PI}
    for a in domain.kink_angles(foot):
        angles.add(a % _TWO_PI)
    return sorted(angles)


def measure_many(domain: PlanarDomain, points,
                 config: QuadratureConfig = QuadratureConfig(),
                 gradient: bool = False):
    """Harmonic measure of ``domain`` at every point of ``points``.

    Returns a list of MeasureValue, one per point, in order.  With
    ``gradient=True`` returns ``(values, gradients (n, 3), gradient errors
    (n, 3))``; the gradient integrates the differentiated kernel on the
    value's partition, it is not a finite difference.  Each point's result is
    the same as when it is evaluated alone.
    """
    points = list(points)
    kinks = cache(lambda foot: _angular_breakpoints(domain, foot))  # per foot
    bps = [kinks(p.foot) for p in points]
    integrand = _RayIntegrand(domain, points, gradient)
    res = integrate_many(integrand, 0.0, _TWO_PI, config.tolerance, bps,
                         max_rounds=config.max_depth)
    values = [MeasureValue(value=min(max(float(r.value[0]), 0.0), 1.0),
                           error=float(r.error[0]), converged=r.converged)
              for r in res]
    if not gradient:
        return values
    grads = np.array([r.value[1:4] for r in res]).reshape(-1, 3)
    errs = np.array([r.error[1:4] for r in res]).reshape(-1, 3)
    return values, grads, errs


def harmonic_measure(domain: PlanarDomain, p: H3Point,
                     config: QuadratureConfig = QuadratureConfig()) -> MeasureValue:
    """Harmonic measure of ``domain`` seen from ``p``.

    Returns a value in [0, 1] with an error estimate; ``converged`` is False
    when the angular refinement hit its depth limit before certifying the
    tolerance (the best estimate is still returned).
    """
    return measure_many(domain, [p], config)[0]


def measure_with_gradient(domain: PlanarDomain, p: H3Point,
                          config: QuadratureConfig = QuadratureConfig()):
    """Measure and its Euclidean gradient in one pass over a shared partition.

    Returns ``(MeasureValue, gradient (3,), gradient_error (3,))``; the
    gradient is (df/dx, df/dy, df/dz) and the hyperbolic gradient norm is
    ``z * norm(gradient)``.
    """
    values, grads, errs = measure_many(domain, [p], config, gradient=True)
    return values[0], grads[0], errs[0]


def kernel_mass(p: H3Point, config: QuadratureConfig = QuadratureConfig()) -> float:
    """Total kernel mass over the plane; approximately 1.

    Integrates the radial closed form out to ``max(z, 1)`` through the
    angular machinery and adds the exact analytic tail of the kernel
    beyond that radius.  Raises QuadratureError if the angular tolerance was
    not certified.
    """
    rho_far = max(p.z, 1.0)
    z2 = p.z**2
    body = rho_far**2 / (rho_far**2 + z2)

    def f(phis):
        return np.full((len(phis), 1), body / _TWO_PI)

    res = adaptive_integrate(f, 0.0, _TWO_PI, config.tolerance,
                             max_rounds=config.max_depth)
    tail = z2 / (rho_far**2 + z2)
    total = res.value[0] + tail
    if not res.converged:
        raise QuadratureError("kernel mass quadrature did not converge",
                              best=total)
    return float(total)

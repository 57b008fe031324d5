"""Hyperbolic Poisson kernel and harmonic measure of planar regions.

The kernel of the upper half-space at p = (x, y, z) is

    P_p(xi, eta) = (1/pi) * [ z / ((x-xi)^2 + (y-eta)^2 + z^2) ]^2,

normalized to unit mass over the plane.  The harmonic measure of a region is
the Poisson integral of its indicator; it equals the fraction of geodesic
rays from p that land in the region, lies strictly between 0 and 1, and is
harmonic in p.

Evaluation strategy: Green's theorem turns the area integral into a sum over
the region's boundary.  With w = x + iy the kernel's foot and
Q = |xi - w|^2 + z^2,

    f        = (1/2 pi) oint Im(conj(xi - w) dxi) / Q,
    df/dx + i df/dy = i oint P dxi,
    df/dz    = -(z/pi) oint Im(conj(xi - w) dxi) / Q^2,

with the boundary oriented so that the region lies on its left.  The
boundary is the arrangement of :func:`~tunnelvision.domains.boundary_pieces`:
segments (possibly infinite) and circular arcs, on each of which all three
integrals are elementary; an unbounded region adds the angle of its
directions at infinity over 2 pi to f.  :func:`measure_many` evaluates the
sum for many points at once, as one array over points x pieces.  The terms
of each point are added exactly rounded, to the bits ``math.fsum`` gives:
:func:`_row_sums` sums every row of the array with a certified TwoSum tree
once it has a few thousand terms, and with ``math.fsum`` below that.  So a
point's result does not depend on the points evaluated with it.  Values-only
calls skip the gradient terms and their size bounds.  It takes the points
as an (n, 3)
array of (x, y, z) rows or as a sequence of ``H3Point``, and returns one
:class:`MeasureValues` record: read-only arrays of values, error bounds and
convergence flags, plus the (n, 3) gradients and their error bounds when
asked.  Callers work on those arrays; ``record[i]`` is the
:class:`MeasureValue` of point i, which :func:`harmonic_measure` and
:func:`measure_with_gradient` return for one point.

Every evaluation takes a domain.  Its arrangement is built on first use
and kept on the domain object, and a build costs about as much as
evaluating a few points; the drivers that evaluate one region many times
(the dogbone experiment, the axis root solve and Hessians, Newton
refinement, the verdict's scans and the level solves of
:func:`~tunnelvision.greens.find_quantizable`) pass their one domain object
down, so each builds one arrangement.  Each call also has a fixed cost,
whatever its size, so the root solves advance all their brackets in
lockstep with one call per round (the axis brackets of
:mod:`~tunnelvision.critical`, and every line's bracket widening and level
solve in ``find_quantizable``), and one call gives every axis critical
point its value, gradient and Hessian stencil.
Since a point's result does not depend on its batch, these results are the
same as one point at a time.

Error accounting is a rounding bound, not an estimate of truncation: with u
the unit roundoff, the reported error of f is

    8u * sum |terms| / 2 pi  +  8u * S * oint P ds,

the first part for the arithmetic of the terms, the second for the rounding
of the corners and the foot (S = |w| + the extent of the pieces), which moves
the boundary by about u S.  ``converged`` means that this bound is within the
requested tolerance.  The gradient error is bounded the same way, with
|grad P| <= 4 P / z in the second part; it holds for z >= 1e-5 (at smaller
heights next to a corner the gradient error can exceed it).  The terms
multiply up to four lengths of size at most S + z.  Once S + z passes 1e76
those products can overflow, and a lost term leaves a plausible value (1/2
for a unit disk seen from height 1e80), so such a row gets an infinite
error and is never converged.  Domains whose parameters pass that length
are rejected when they are built (``domains._LENGTH_MAX``).

The adaptive Gauss-Kronrod integral over angle of the polar decomposition
(:func:`ray_quadrature`) is kept as an independent reference for tests.
The kernel's unit mass needs no integral of its own: a region and its
complement in the plane have measures summing to 1.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .domains import (_LENGTH_MAX, BoundaryPieces, PlanarDomain, _frozen,
                      boundary_pieces)
from .hyperbolic import H3Point
from .quadrature import adaptive_integrate

__all__ = [
    "QuadratureConfig",
    "MeasureValue",
    "MeasureValues",
    "poisson_kernel",
    "harmonic_measure",
    "measure_many",
    "measure_with_gradient",
    "ray_quadrature",
    "halfplane_closed_form",
    "disk_closed_form",
]

_TWO_PI = 2.0 * math.pi
_ROUND = 8.0 * 2.0**-53  # eight unit roundoffs


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerance of a measure evaluation.

    tolerance : bound on the reported error of a measure value; a value
    whose error bound exceeds it is flagged ``converged=False``.
    """

    tolerance: float = 1e-7

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class MeasureValue:
    """A measure evaluation: value, error bound, and convergence flag."""

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


# -- the boundary sum -------------------------------------------------------------
#
# Each helper returns (n points, terms) arrays: the terms of 2 pi f and the
# kernel mass along each piece, oint P ds; with ``gradient`` also the complex
# terms of df/dx + i df/dy, the terms of df/dz and bounds on the size of what
# enters each gradient term (xy, z).


def _atan_step(t0, t1, length, D, D2):
    """atan(t1/D) - atan(t0/D) without cancellation; t0 may be -inf, t1 +inf."""
    f0, f1 = np.isfinite(t0), np.isfinite(t1)
    a0, a1 = np.where(f0, t0, 0.0), np.where(f1, t1, 0.0)
    one_end = np.arctan2(D, np.where(f0, a0, -a1))
    return np.where(f0 & f1, np.arctan2(length * D, D2 + a0 * a1),
                    np.where(f0 | f1, one_end, math.pi))


def _ratio(t, D2):
    """t / (t^2 + D^2), zero at infinite t."""
    fin = np.isfinite(t)
    a = np.where(fin, t, 0.0)
    return np.where(fin, a / (a * a + D2), 0.0)


def _segment_terms(pc: BoundaryPieces, w, z, gradient):
    u = pc.seg_dir
    rel = pc.seg_anchor - w
    c = rel.real * u.imag - rel.imag * u.real      # distance of w left of the line
    b = rel.real * u.real + rel.imag * u.imag      # anchor's position along it
    t0, t1 = pc.seg_lo + b, pc.seg_hi + b
    D2 = c * c + z * z
    D = np.sqrt(D2)
    dat = _atan_step(t0, t1, pc.seg_hi - pc.seg_lo, D, D2)
    r0, r1 = _ratio(t0, D2), _ratio(t1, D2)
    # J = int dt / (t^2 + D^2)^2 over the piece
    J = (r1 - r0) / (2.0 * D2) + dat / (2.0 * D * D2)
    k = z * z / math.pi
    if not gradient:
        return c / D * dat, k * J
    J_size = (np.abs(r1) + np.abs(r0)) / (2.0 * D2) + dat / (2.0 * D * D2)
    return (c / D * dat, k * J, 1j * u * k * J, -(z * c / math.pi) * J,
            k * J_size, (z * np.abs(c) / math.pi) * J_size)


def _arc_terms(pc: BoundaryPieces, w, z, gradient):
    r, sweep = pc.arc_radius, pc.arc_sweep
    d = pc.arc_center - w
    ad = np.abs(d)
    theta_d = np.angle(d)
    # Q = A + C cos(theta) along the arc, theta measured from the direction d
    A = ad * ad + r * r + z * z
    C = 2.0 * r * ad
    K = np.sqrt(((ad - r) ** 2 + z * z) * ((ad + r) ** 2 + z * z))  # sqrt(A^2 - C^2)
    ta = pc.arc_start - theta_d
    tb = ta + sweep
    half = np.arctan2(K * np.sin(0.5 * sweep),
                      A * np.cos(0.5 * sweep) + C * np.cos(ta + 0.5 * sweep))
    half = np.where(np.abs(sweep) >= _TWO_PI, np.copysign(math.pi, sweep), half)
    I1 = 2.0 * half / K                           # int dtheta / Q
    h = 0.5 * ((r - ad) * (r + ad) - z * z)        # r^2 - A/2
    ends = pc.arc_center + r * np.exp(1j * np.stack([pc.arc_start,
                                                     pc.arc_start + sweep]))
    Qa, Qb = np.abs(ends[0] - w) ** 2 + z * z, np.abs(ends[1] - w) ** 2 + z * z
    sin_q = np.sin(tb) / Qb - np.sin(ta) / Qa      # [sin(theta) / Q]
    K2 = K * K
    I2 = (A * I1 - C * sin_q) / K2                 # int dtheta / Q^2
    k = z * z * r / math.pi
    value = np.concatenate([np.broadcast_to(0.5 * sweep, I1.shape), h * I1], axis=1)
    if not gradient:
        return value, k * np.abs(I2)
    sin_q_size = np.abs(np.sin(tb) / Qb) + np.abs(np.sin(ta) / Qa)
    Ic = (A * sin_q - C * I1) / K2                 # int cos(theta) dtheta / Q^2
    Is = (np.cos(ta) - np.cos(tb)) / (Qa * Qb)     # int sin(theta) dtheta / Q^2
    I2_size = (A * np.abs(I1) + C * sin_q_size) / K2
    Ic_size = (A * sin_q_size + C * np.abs(I1)) / K2
    Is_size = (np.abs(np.cos(ta)) + np.abs(np.cos(tb))) / (Qa * Qb)
    gxy = -k * np.exp(1j * theta_d) * (Ic + 1j * Is)
    gz = -(z / math.pi) * (0.5 * I1 + h * I2)
    gz_size = (z / math.pi) * (0.5 * np.abs(I1) + np.abs(h) * I2_size)
    return value, k * np.abs(I2), gxy, gz, k * (Ic_size + Is_size), gz_size


# -- exactly rounded row sums -----------------------------------------------------
#
# Below this many terms an array's rows go straight to math.fsum: the tree
# and its certificate cost a fixed ~45 numpy calls, ~50 us, which per-row
# fsum undercuts on small arrays.  Measured on both callers (numpy 2.4,
# x86-64, best of 7): the dogbone's boundary sums, 23 value and 3 x 12
# gradient terms a row, break even near 2,000 terms for values (80 points:
# 61 us with fsum against 65 us; 100 points: 76 us against 65 us) and near
# 1,600 for gradients (60 points, 2,160 terms: 75 us against 60 us); a
# Green's series shell, one row, near 2,700 terms (2,500: 70 us against
# 80 us; 3,000: 94 us against 82 us).  So 1-14-point calls and shells 0-3
# keep fsum; grid scans, 200-sample profiles and shells 4-6 take the tree.
_ROW_SUM_MIN = 2000


def _fsum_rows(x: np.ndarray) -> np.ndarray:
    """``math.fsum`` of every row of ``x``, one Python call per row."""
    rows = x.reshape(math.prod(x.shape[:-1]), x.shape[-1]).tolist()
    return np.array([math.fsum(row) for row in rows]).reshape(x.shape[:-1])


def _two_sum_tree(x: np.ndarray):
    """Pairwise sum along the first axis of ``x`` and the exact error of every addition.

    Each level adds the first half of the rows to the second (an odd last
    row is carried up) and keeps Knuth's TwoSum error: for s = fl(a + b) and
    t = s - a, (a - (s - t)) + (b - t) equals a + b - s exactly, barring
    overflow.  So the true sum is the returned sum plus the sum of the
    returned errors, one per addition: ``len(x) - 1`` rows.
    """
    errors = np.empty((len(x) - 1, *x.shape[1:]))
    done = 0
    while len(x) > 1:
        half, odd = divmod(len(x), 2)
        a, b = x[:half], x[half:2 * half]
        s = np.empty((half + odd, *x.shape[1:]))
        np.add(a, b, out=s[:half])
        if odd:
            s[half] = x[-1]
        t = s[:half] - a
        e = errors[done:done + half]
        np.subtract(s[:half], t, out=e)
        np.subtract(a, e, out=e)
        np.subtract(b, t, out=t)
        np.add(e, t, out=e)
        done += half
        x = s
    return x[0], errors


def _row_sums(x: np.ndarray) -> np.ndarray:
    """``math.fsum`` of every row of an (..., m) array, bit for bit.

    A TwoSum tree gives each row's sum ``hi`` and the exact errors of its
    m - 1 additions, so the exact sum is hi + (sum of the errors).  The
    errors are added plainly to ``lo``, which is exact when at most one of
    them is nonzero and otherwise off by at most delta = 2 m u (sum of their
    sizes), u = 2**-53 (any order of summation errs by less than (m - 2) u
    times that sum).  With r = fl(hi + lo) and its error t, the exact sum is
    r + t + (sum of the errors - lo).  r is the correctly rounded sum when lo
    is exact, or when |t| + delta lies strictly within half the float gap at
    r (a quarter of the gap above when |r| is a power of two, as the gap
    below is half as wide).  Correct rounding is unique, so a certified r is
    what ``math.fsum`` returns (the cascaded sum of Ogita, Rump & Oishi,
    *Accurate sum and dot product*, 2005, with a certificate of its
    rounding).

    ``math.fsum`` sums the rows whose r is zero or uncertified, the rows
    with a term of size 2**1023 / m or more (where fsum's running sum can
    overflow and raise; non-finite terms among them), and every row of an
    array of fewer than ``_ROW_SUM_MIN`` terms.  Returns an array of shape
    ``x.shape[:-1]``; fsum's exceptions propagate.
    """
    x = np.asarray(x, dtype=float)
    if x.size < _ROW_SUM_MIN or x.size == 0:
        return _fsum_rows(x)
    m = x.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        hi, errors = _two_sum_tree(np.moveaxis(x, -1, 0))
        lo = errors.sum(axis=0)
        r = hi + lo
        t = (hi - (r - (r - hi))) + (lo - (r - hi))
        # the smallest subnormal also covers an underflowing product
        delta = 2.0 * m * 2.0**-53 * np.abs(errors).sum(axis=0) + 5e-324
        power_of_two = np.abs(np.frexp(r)[0]) == 0.5
        gap = np.spacing(np.abs(r)) * np.where(power_of_two, 0.25, 0.5)
        # one test over the whole array, and row by row only when it fails
        # (a row reduction costs more than the tree on short rows)
        limit = 2.0**1023 / m
        safe = np.maximum(x.max(), -x.min()) < limit
        if not safe:
            safe = np.maximum(x.max(axis=-1), -x.min(axis=-1)) < limit
        certified = ((r != 0.0) & safe
                     & ((np.count_nonzero(errors, axis=0) <= 1) | (np.abs(t) + delta < gap)))
    out = np.where(certified, r, 0.0)
    rest = np.flatnonzero(~certified)
    if rest.size:
        rows = x.reshape(out.size, m)[rest]
        out.reshape(-1)[rest] = [math.fsum(row) for row in rows.tolist()]
    return out


@dataclass(frozen=True, eq=False, repr=False)
class MeasureValues(Sequence):
    """Measure evaluations at many points as one array record.

    ``values``, ``errors`` and ``converged`` have one entry per point, in
    the order the points were given.  With a gradient, ``gradients`` (n, 3)
    holds (df/dx, df/dy, df/dz) and ``gradient_errors`` (n, 3) their error
    bounds; without one both are None.  The arrays are read-only.

    As a sequence of :class:`MeasureValue` it supports ``len``, int and
    negative indexing and iteration; ``record[i]`` is the value
    :func:`harmonic_measure` gives at point i alone.
    """

    values: np.ndarray
    errors: np.ndarray
    converged: np.ndarray
    gradients: np.ndarray | None = None
    gradient_errors: np.ndarray | None = None

    def __post_init__(self):
        for name in ("values", "errors", "converged", "gradients", "gradient_errors"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, _frozen(getattr(self, name)))

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, i):
        i = range(len(self))[operator.index(i)]
        return MeasureValue(float(self.values[i]), float(self.errors[i]),
                            bool(self.converged[i]))


def _coordinates(points) -> np.ndarray:
    """Points as an (n, 3) float array; rejects non-finite or non-positive z."""
    if not isinstance(points, np.ndarray):
        points = [(p.x, p.y, p.z) for p in points]
    xyz = np.asarray(points, dtype=float).reshape(-1, 3)
    if not (np.isfinite(xyz).all() and (xyz[:, 2] > 0.0).all()):
        raise ValueError("points need finite coordinates and positive height")
    return xyz


def measure_many(domain: PlanarDomain, points,
                 config: QuadratureConfig = QuadratureConfig(),
                 gradient: bool = False) -> MeasureValues:
    """Harmonic measure of ``domain`` at every point of ``points``.

    ``points`` is an (n, 3) array of (x, y, z) rows or a sequence of
    :class:`H3Point`; both give the same bits.  The sum runs over the
    domain's :func:`~tunnelvision.domains.boundary_pieces`, built on the
    first call with a domain object and kept on it.

    Returns a :class:`MeasureValues` record, one row per point, in order.
    With ``gradient=True`` it also holds the gradients and their error
    bounds; the gradient is the boundary sum of the differentiated kernel,
    not a finite difference.  Each point's result is the same as when it is
    evaluated alone.
    """
    xyz = _coordinates(points)
    n = len(xyz)
    # the foot by assignment (x + 1j*y would turn -0.0 into +0.0) and the
    # heights as a contiguous column, as lists of H3Point gave them
    w = np.empty(n, dtype=complex)
    w.real, w.imag = xyz[:, 0], xyz[:, 1]
    w = w[:, None]
    z = np.ascontiguousarray(xyz[:, 2])[:, None]
    pc = boundary_pieces(domain)
    terms, mass, *grad_parts = (
        np.concatenate(parts, axis=1)
        for parts in zip(_segment_terms(pc, w, z, gradient),
                         _arc_terms(pc, w, z, gradient)))
    terms = np.concatenate([terms, np.full((n, 1), pc.at_infinity)], axis=1)
    mass = mass.sum(axis=1)
    scale = np.abs(w[:, 0]) + pc.extent
    err = (_ROUND * np.abs(terms).sum(axis=1) / _TWO_PI
           + _ROUND * scale * mass)
    overflow = scale + z[:, 0] > _LENGTH_MAX
    err[overflow] = math.inf
    # clipped to [0, 1] as min(max(v, 0), 1) does: -0.0 and NaN pass as they are
    values = _row_sums(terms) / _TWO_PI
    values = np.where(values < 0.0, 0.0, values)
    values = np.where(values > 1.0, 1.0, values)
    if not gradient:
        return MeasureValues(values, err, err <= config.tolerance)

    gxy, gz, gxy_size, gz_size = grad_parts
    grads = _row_sums(np.stack([gxy.real, gxy.imag, gz], axis=1))
    shift = _ROUND * scale * 4.0 * mass / z[:, 0]  # |grad P| <= 4 P / z
    xy_err = _ROUND * gxy_size.sum(axis=1) + shift
    z_err = _ROUND * gz_size.sum(axis=1) + shift
    grad_err = np.stack([xy_err, xy_err, z_err], axis=1)
    grad_err[overflow] = math.inf
    return MeasureValues(values, err, err <= config.tolerance, grads, grad_err)


def harmonic_measure(domain: PlanarDomain, p: H3Point,
                     config: QuadratureConfig = QuadratureConfig()) -> MeasureValue:
    """Harmonic measure of ``domain`` seen from ``p``.

    Returns a value in [0, 1] with an error bound; ``converged`` is False
    when the bound exceeds the configured tolerance.
    """
    return measure_many(domain, [p], config)[0]


def measure_with_gradient(domain: PlanarDomain, p: H3Point,
                          config: QuadratureConfig = QuadratureConfig()):
    """Measure and its Euclidean gradient from one boundary sum.

    Returns ``(MeasureValue, gradient (3,), gradient_error (3,))``; the
    gradient is (df/dx, df/dy, df/dz) and the hyperbolic gradient norm is
    ``z * norm(gradient)``.
    """
    record = measure_many(domain, [p], config, gradient=True)
    return record[0], record.gradients[0], record.gradient_errors[0]


# -- reference quadrature ---------------------------------------------------------


def _cdf(t, z):
    """The kernel's radial mass out to distance t from the foot: t^2/(t^2+z^2)."""
    return t * t / (t * t + z * z)


class _RayIntegrand:
    """Angular density of the measure seen from one point.

    Along each ray from the foot the kernel mass has the closed-form
    antiderivative :func:`_cdf`, and the indicator changes only at primitive
    boundary crossings, so the radial integral is exact out to infinity.
    """

    def __init__(self, domain: PlanarDomain, p: H3Point):
        self.domain = domain
        self.foot = p.foot
        self.z = p.z
        r = domain.bounding_radius
        self.far_pad = max(p.z, abs(p.foot) + p.z + (r if math.isfinite(r) else 1.0))

    def __call__(self, phis: np.ndarray) -> np.ndarray:
        dirs = np.exp(1j * phis)
        ts = self.domain.ray_crossings(self.foot, dirs)
        ts[~(ts > 0.0)] = np.nan
        ts = np.sort(ts, axis=1)  # NaN sorts last
        # far radius per ray: beyond every crossing of this ray
        t_far = 1.5 * np.fmax.reduce(ts, axis=1, initial=0.0) + self.far_pad
        ts = np.where(np.isnan(ts), t_far[:, None], ts)
        edges = np.concatenate([np.zeros((len(phis), 1)), ts], axis=1)
        mids = 0.5 * (edges[:, :-1] + edges[:, 1:])
        inside = self.domain.contains(self.foot + mids * dirs[:, None])
        inside_tail = self.domain.contains(self.foot + (2.0 * t_far) * dirs)
        cdf = _cdf(edges, self.z)
        d_val = np.where(inside, cdf[:, 1:] - cdf[:, :-1], 0.0).sum(axis=1)
        d_val += np.where(inside_tail, 1.0 - cdf[:, -1], 0.0)
        return d_val / _TWO_PI


def ray_quadrature(domain: PlanarDomain, p: H3Point,
                   tolerance: float) -> MeasureValue:
    """Harmonic measure by adaptive quadrature over angle: the reference.

    Integrates :class:`_RayIntegrand` with Gauss-Kronrod, seeded with kinks
    at the domain's ``kink_angles`` and at the directions of the corners of
    its boundary arrangement.  Independent of the boundary sum except for
    those seeds; ``error`` is the Kronrod-Gauss estimate.
    """
    foot = p.foot
    corners = boundary_pieces(domain).corners() - foot
    kinks = [*domain.kink_angles(foot), *np.angle(corners).tolist()]
    bps = sorted({0.0, math.pi, _TWO_PI, *(a % _TWO_PI for a in kinks)})
    res = adaptive_integrate(_RayIntegrand(domain, p), 0.0, _TWO_PI, tolerance, bps)
    return MeasureValue(value=min(max(float(res.value[0]), 0.0), 1.0),
                        error=float(res.error[0]), converged=res.converged)

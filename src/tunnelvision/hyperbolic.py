"""Exact-model geometry of hyperbolic 3-space in the upper-half-space model.

Points live in {(x, y, z) : z > 0} with metric (dx^2 + dy^2 + dz^2)/z^2.
Orientation-preserving isometries are unit-determinant complex 2x2 matrices
acting on the boundary plane by fractional-linear maps and on the interior
by the quaternionic (Poincare) extension.  The Poincare disk appears only as
the 2-dimensional model used to build fundamental polygons; a single fixed
Cayley transport embeds it into the half-space model.

Everything here is an immutable value; all operations are pure.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "H3Point",
    "DiskPoint",
    "MobiusMap",
    "INFINITY",
    "h3_distance",
    "h3_distance_batch",
    "disk_distance",
    "disk_to_h3",
    "geodesic_point",
    "laplace_beltrami",
    "apply_h3_batch",
    "renormalize_batch",
]

#: Marker for the boundary point at infinity of the Riemann sphere.
INFINITY = complex(math.inf, 0.0)

#: A map is renormalized when |det - 1| exceeds the larger of these: an
#: absolute tolerance, and the rounding scale of the float determinant
#: itself, 16 eps (|a||d| + |b||c|).  Below ~280 for |a||d| + |b||c| the
#: first one rules.  Once renormalized, a map passes the test again.
_DET_TOL = 1e-12
_DET_ROUNDING = 16.0 * sys.float_info.epsilon


@dataclass(frozen=True)
class H3Point:
    """A point of the upper half-space model; ``z > 0`` strictly."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        for v in (self.x, self.y, self.z):
            if not math.isfinite(v):
                raise ValueError(f"non-finite coordinate in {self!r}")
        if self.z <= 0.0:
            raise ValueError(f"height must be positive, got z={self.z}")

    @property
    def foot(self) -> complex:
        """Orthogonal projection onto the boundary plane, as a complex number."""
        return complex(self.x, self.y)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=float)


@dataclass(frozen=True)
class DiskPoint:
    """A point of the Poincare disk, |zeta| < 1, metric 4|dzeta|^2/(1-|zeta|^2)^2."""

    zeta: complex

    def __post_init__(self):
        if not (abs(self.zeta) < 1.0):
            raise ValueError(f"disk point must satisfy |zeta| < 1, got {self.zeta}")


@dataclass(frozen=True)
class MobiusMap:
    """A unit-determinant fractional-linear map ``zeta -> (a zeta + b)/(c zeta + d)``.

    The determinant is renormalized to 1 on construction (orbit enumeration
    composes thousands of maps, so drift must not accumulate): the entries
    are divided by sqrt(det) when |det - 1| exceeds both 1e-12 and
    16 eps (|a||d| + |b||c|), the rounding scale of the float determinant.
    Below that scale the float determinant cannot tell drift from its own
    rounding, so the rule is idempotent: the entries of a constructed map
    construct the same map again, bit for bit.  ``m @ n`` is composition
    (apply ``n`` first), matching matrix multiplication.
    """

    a: complex
    b: complex
    c: complex
    d: complex

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if det == 0:
            raise ValueError("singular matrix is not a Mobius map")
        size = abs(self.a) * abs(self.d) + abs(self.b) * abs(self.c)
        if abs(det - 1.0) > max(_DET_TOL, _DET_ROUNDING * size):
            s = 1.0 / cmath.sqrt(det)
            object.__setattr__(self, "a", self.a * s)
            object.__setattr__(self, "b", self.b * s)
            object.__setattr__(self, "c", self.c * s)
            object.__setattr__(self, "d", self.d * s)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def identity() -> "MobiusMap":
        return MobiusMap(1.0, 0.0, 0.0, 1.0)

    @staticmethod
    def translation(b: complex) -> "MobiusMap":
        """Boundary translation ``zeta -> zeta + b``."""
        return MobiusMap(1.0, b, 0.0, 1.0)

    @staticmethod
    def dilation(lam: float) -> "MobiusMap":
        """Dilation ``zeta -> lam * zeta`` about the origin, ``lam > 0``."""
        if lam <= 0:
            raise ValueError("dilation factor must be positive")
        s = math.sqrt(lam)
        return MobiusMap(s, 0.0, 0.0, 1.0 / s)

    @staticmethod
    def disk_rotation(theta: float) -> "MobiusMap":
        """Rotation of the unit disk about 0 by angle theta."""
        w = cmath.exp(0.5j * theta)
        return MobiusMap(w, 0.0, 0.0, w.conjugate())

    @staticmethod
    def disk_translation(t: float) -> "MobiusMap":
        """Hyperbolic translation of the unit disk along the real axis by distance t."""
        ch, sh = math.cosh(t / 2.0), math.sinh(t / 2.0)
        return MobiusMap(ch, sh, sh, ch)

    # -- algebra -------------------------------------------------------------

    def __matmul__(self, other: "MobiusMap") -> "MobiusMap":
        return MobiusMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MobiusMap":
        # unit determinant: adjugate is the inverse
        return MobiusMap(self.d, -self.b, -self.c, self.a)

    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=complex)

    # -- actions -------------------------------------------------------------

    def apply_boundary(self, zeta: complex) -> complex:
        """Act on the boundary sphere; ``INFINITY`` marks the point at infinity."""
        if cmath.isinf(zeta):
            if self.c == 0:
                return INFINITY
            return self.a / self.c
        den = self.c * zeta + self.d
        if den == 0:
            return INFINITY
        return (self.a * zeta + self.b) / den

    def apply_h3(self, p: H3Point) -> H3Point:
        """Act on the interior by the isometric extension.

        Writing the point as a quaternion ``w + z j`` with ``w = x + iy``, the
        image of ``(a w + b)(c w + d)^{-1}`` has the explicit real form used
        here; it restricts to ``apply_boundary`` as z -> 0.
        """
        w = complex(p.x, p.y)
        cw_d = self.c * w + self.d
        den = abs(cw_d) ** 2 + abs(self.c) ** 2 * p.z**2
        w2 = ((self.a * w + self.b) * cw_d.conjugate()
              + self.a * self.c.conjugate() * p.z**2) / den
        return H3Point(w2.real, w2.imag, p.z / den)


def h3_distance(p: H3Point, q: H3Point) -> float:
    """Hyperbolic distance, via sinh(d/2) = |p - q| / (2 sqrt(z_p z_q)).

    This is cosh d = 1 + |p - q|^2 / (2 z_p z_q) without the cancellation
    of acosh near 1, which returns 0 for points closer than about 1e-8.
    """
    dd = (p.x - q.x) ** 2 + (p.y - q.y) ** 2 + (p.z - q.z) ** 2
    return 2.0 * math.asinh(0.5 * math.sqrt(dd / (p.z * q.z)))


def h3_distance_batch(pts: np.ndarray, q: H3Point) -> np.ndarray:
    """Distances from each row of an (n, 3) array of points to ``q``.

    The formula of :func:`h3_distance`, row by row, so close points keep
    their distance.
    """
    dd = (pts[:, 0] - q.x) ** 2 + (pts[:, 1] - q.y) ** 2 + (pts[:, 2] - q.z) ** 2
    return 2.0 * np.arcsinh(0.5 * np.sqrt(dd / (pts[:, 2] * q.z)))


def disk_distance(u: DiskPoint, v: DiskPoint) -> float:
    """Distance in the Poincare disk; disk_distance(0, r) = log((1+r)/(1-r))."""
    num = abs(u.zeta - v.zeta)
    den = abs(1.0 - u.zeta.conjugate() * v.zeta)
    return 2.0 * math.atanh(num / den)


# Fixed transport between the two models: the Cayley map
# zeta -> i (1 + zeta)/(1 - zeta) carries the unit disk onto the upper half
# plane {Im w > 0}, which embeds in half-space as the totally geodesic
# vertical plane {y = 0} via (u, v) -> (u, 0, v).
_CAYLEY_FROM_DISK = MobiusMap(1.0, -1.0j, 1.0, 1.0j).inverse()


def disk_to_h3(u: DiskPoint) -> H3Point:
    """Transport a disk-model point into the half-space model.

    Image of 0 is (0, 0, 1); the transport is an isometry onto the vertical
    plane {y = 0}, so disk distances equal half-space distances of the images.
    """
    w = _CAYLEY_FROM_DISK.apply_boundary(u.zeta)
    return H3Point(w.real, 0.0, w.imag)


def geodesic_point(direction: np.ndarray, t: float) -> H3Point:
    """The point at arc length ``t`` along the geodesic from (0, 0, 1).

    ``direction`` is a Euclidean unit 3-vector, which at (0, 0, 1) is also a
    unit tangent vector of the hyperbolic metric.  The geodesic lies in the
    vertical plane spanned by the direction's horizontal part; within the
    plane the flow is the standard PSL(2,R) one.
    """
    vx, vy, vz = float(direction[0]), float(direction[1]), float(direction[2])
    s = math.hypot(vx, vy)
    alpha = math.atan2(s, vz)  # angle from the upward vertical
    ca, sa = math.cos(alpha / 2.0), math.sin(alpha / 2.0)
    w = 1j * math.exp(t)
    w = (ca * w + sa) / (-sa * w + ca)
    if s == 0.0:
        return H3Point(0.0, 0.0, w.imag)
    ux, uy = vx / s, vy / s
    return H3Point(w.real * ux, w.real * uy, w.imag)


def laplace_beltrami(f, p: H3Point, step: float) -> float:
    """Second-order discrete Laplace-Beltrami operator, geometer's sign.

    Returns ``-(z^2 (f_xx + f_yy + f_zz) - z f_z)`` with central differences
    of Euclidean-coordinate step ``step``; positive on a positive fundamental
    singularity.  Requires ``step < z/2`` so the stencil stays in the model.

    Parameters
    ----------
    f : callable
        Scalar field; called as ``f(H3Point) -> float``.
    p : H3Point
        Evaluation point.
    step : float
        Stencil half-width.
    """
    if not 0.0 < step < p.z / 2.0:
        raise ValueError(f"step must lie in (0, z/2) = (0, {p.z / 2}), got {step}")
    x, y, z = p.x, p.y, p.z
    f0 = f(p)
    fxx = (f(H3Point(x + step, y, z)) - 2.0 * f0 + f(H3Point(x - step, y, z)))
    fyy = (f(H3Point(x, y + step, z)) - 2.0 * f0 + f(H3Point(x, y - step, z)))
    fzp = f(H3Point(x, y, z + step))
    fzm = f(H3Point(x, y, z - step))
    fzz = fzp - 2.0 * f0 + fzm
    fz = (fzp - fzm) / (2.0 * step)
    lap_e = (fxx + fyy + fzz) / step**2
    return -(z * z * lap_e - z * fz)


def apply_h3_batch(mats: np.ndarray, p: H3Point) -> np.ndarray:
    """Apply a stack of unit-determinant matrices (n, 2, 2) to one point.

    Returns an (n, 3) float array of image coordinates.  Vectorized form of
    :meth:`MobiusMap.apply_h3` for orbit and series computations.
    """
    a, b = mats[:, 0, 0], mats[:, 0, 1]
    c, d = mats[:, 1, 0], mats[:, 1, 1]
    w = complex(p.x, p.y)
    cw_d = c * w + d
    den = np.abs(cw_d) ** 2 + np.abs(c) ** 2 * p.z**2
    w2 = ((a * w + b) * np.conj(cw_d) + a * np.conj(c) * p.z**2) / den
    out = np.empty((len(mats), 3))
    out[:, 0] = w2.real
    out[:, 1] = w2.imag
    out[:, 2] = p.z / den
    return out


def renormalize_batch(mats: np.ndarray) -> None:
    """Renormalize a complex (n, 2, 2) stack in place by :class:`MobiusMap`'s rule.

    Every row ends bit-identical to ``MobiusMap(*row).matrix()``.  A row
    whose numpy |det - 1| exceeds half the rule's threshold, half of
    max(1e-12, 16 eps (|a||d| + |b||c|)), is replaced by that matrix, so a
    singular row raises ValueError (unless |a||d| + |b||c| > 1/(8 eps)).
    Every other row is kept, as the rule keeps it: numpy's determinant, whose
    complex products may fuse multiply-adds, differs from CPython's by a few
    eps (|a||d| + |b||c|), inside the other half.  Enumerated records keep
    every row, so the loop over replaced rows does not run there, and a
    second pass changes nothing.
    """
    if mats.dtype != complex or mats.shape[1:] != (2, 2):
        raise TypeError("need a complex (n, 2, 2) array")
    a, b, c, d = mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1]
    size = np.abs(a) * np.abs(d) + np.abs(b) * np.abs(c)
    drift = np.abs(a * d - b * c - 1.0)
    for i in np.flatnonzero(drift > 0.5 * np.maximum(_DET_TOL, _DET_ROUNDING * size)):
        mats[i] = MobiusMap(*mats[i].ravel().tolist()).matrix()

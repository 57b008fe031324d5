"""Composable planar regions serving as boundary data on the plane at infinity.

A domain is an expression tree over three primitives (disks, half-planes,
simple polygons) combined by union / intersection / difference.  Membership
is exact; behaviour exactly on the topological boundary is unspecified
(either value may be returned), which is harmless because domains only enter
through integrals.

A tree answers membership, writes its JSON, rescales itself and meets rays
with its primitive boundaries (for the reference quadrature over angle).
Geometric questions go to its boundary, laid out by :func:`boundary_pieces`
as oriented segments and circular arcs: the input of the measure's boundary
sum, and the region's size and boundedness (``BoundaryPieces.radius``).
:func:`dogbone` builds the paper's example region.

The JSON wire format is a tagged-union tree, e.g.::

    {"op": "union", "args": [{"disk": {"c": [1, 0], "r": 0.25}}, ...]}
    {"dogbone": {"eps": 0.1}}

which is the CLI's input contract.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PlanarDomain",
    "Disk",
    "HalfPlane",
    "SimplePolygon",
    "Union",
    "Intersection",
    "Difference",
    "dogbone",
    "BoundaryPieces",
    "boundary_pieces",
    "domain_from_obj",
]


# The boundary sum multiplies up to four lengths (see tunnelvision.measure);
# below this size their products, times small constants, stay finite.
_LENGTH_MAX = 1e76


def _check_length(name: str, length: float, value) -> None:
    """Reject a parameter whose length exceeds what the boundary sum can evaluate."""
    if not length <= _LENGTH_MAX:
        raise ValueError(f"{name} must stay within {_LENGTH_MAX:g} of the origin, "
                         f"got {value}")


class PlanarDomain:
    """Base class of the domain expression tree.  Immutable after construction.

    :func:`boundary_pieces` keeps the arrangement it builds on the domain
    object; copies and pickles leave it out and rebuild it when asked.
    """

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_pieces", None)
        return state

    def contains(self, zeta):
        """Membership test; accepts a complex scalar or ndarray."""
        raise NotImplementedError

    def primitives(self):
        """Iterate the primitive leaves of the tree."""
        raise NotImplementedError

    def scaled(self, lam: float) -> "PlanarDomain":
        """The dilated domain ``lam * Omega``, for a finite ``lam > 0``."""
        if not (math.isfinite(lam) and lam > 0):
            raise ValueError(f"scale factor must be finite and positive, got {lam}")
        return self._scaled(lam)

    def _scaled(self, lam):
        raise NotImplementedError

    def to_obj(self):
        raise NotImplementedError

    # ray support: each primitive fills a fixed number of crossing columns
    # (NaN = none); ``origin`` is one point, or one point per ray.

    def ray_crossings(self, origin: complex, dirs: np.ndarray) -> np.ndarray:
        parts = [p.ray_crossings(origin, dirs) for p in self.primitives()]
        return np.concatenate(parts, axis=1)

    def kink_angles(self, origin: complex) -> list[float]:
        """Angles where the angular mass profile seen from ``origin`` may kink."""
        out = []
        for p in self.primitives():
            out.extend(p.kink_angles(origin))
        return out


@dataclass(frozen=True)
class Disk(PlanarDomain):
    center: complex
    radius: float

    def __post_init__(self):
        if not (cmath.isfinite(self.center) and 0 < self.radius < math.inf):
            raise ValueError("disk needs a finite center and a finite positive "
                             f"radius, got {self.center}, {self.radius}")
        _check_length("disk center + radius",
                      math.hypot(self.center.real, self.center.imag) + self.radius,
                      (self.center, self.radius))

    def contains(self, zeta):
        return np.abs(np.asarray(zeta) - self.center) < self.radius

    def primitives(self):
        yield self

    def _scaled(self, lam):
        return Disk(self.center * lam, self.radius * lam)

    def ray_crossings(self, origin, dirs):
        # |origin + t u - c|^2 = r^2, u unit: t^2 + 2 b t + q = 0
        oc = origin - self.center
        b = (np.conj(dirs) * oc).real
        q = np.abs(oc)
        q = q * q - self.radius**2
        disc = b * b - q
        out = np.full((len(dirs), 2), np.nan)
        hit = disc > 0
        sq = np.sqrt(disc[hit])
        out[hit, 0] = -b[hit] - sq
        out[hit, 1] = -b[hit] + sq
        return out

    def kink_angles(self, origin):
        oc = self.center - origin
        d = abs(oc)
        base = math.atan2(oc.imag, oc.real)
        if d > self.radius:
            half = math.asin(min(1.0, self.radius / d))
            return [base - half, base + half, base]
        return [base]

    def to_obj(self):
        return {"disk": {"c": [self.center.real, self.center.imag], "r": self.radius}}


@dataclass(frozen=True)
class HalfPlane(PlanarDomain):
    """The half-plane { zeta : Re(conj(normal) * zeta) > offset }.

    ``normal`` is the unit inward normal of the boundary line.
    """

    normal: complex
    offset: float

    def __post_init__(self):
        try:
            n = abs(self.normal)
        except OverflowError:  # finite parts, modulus past the float range
            n = math.inf
        if not (0 < n < math.inf and math.isfinite(self.offset)):
            raise ValueError("half-plane needs a finite nonzero normal and a finite "
                             f"offset, got {self.normal}, {self.offset}")
        _check_length("half-plane offset", abs(self.offset), self.offset)
        if abs(n - 1.0) > 1e-12:
            object.__setattr__(self, "normal", self.normal / n)

    def contains(self, zeta):
        return (self.normal.conjugate() * np.asarray(zeta)).real > self.offset

    def primitives(self):
        yield self

    def _scaled(self, lam):
        return HalfPlane(self.normal, self.offset * lam)

    def ray_crossings(self, origin, dirs):
        num = self.offset - (self.normal.conjugate() * origin).real
        den = (self.normal.conjugate() * dirs).real
        # rays parallel to the line (den == 0) get NaN: no crossing
        return (num / np.where(den != 0, den, np.nan))[:, None]

    def kink_angles(self, origin):
        a = math.atan2(self.normal.imag, self.normal.real)
        return [a + math.pi / 2.0, a - math.pi / 2.0]

    def to_obj(self):
        return {"halfplane": {"n": [self.normal.real, self.normal.imag],
                              "offset": self.offset}}


def _cross(a, b):
    """Im(conj(a) b)."""
    return a.real * b.imag - a.imag * b.real


def _segments_properly_intersect(p1, p2, q1, q2) -> bool:
    d1 = _cross(q2 - q1, p1 - q1)
    d2 = _cross(q2 - q1, p2 - q1)
    d3 = _cross(p2 - p1, q1 - p1)
    d4 = _cross(p2 - p1, q2 - p1)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


@dataclass(frozen=True)
class SimplePolygon(PlanarDomain):
    """A non-self-intersecting polygon given by >= 3 non-collinear vertices."""

    vertices: tuple

    def __post_init__(self):
        verts = tuple(complex(v) for v in self.vertices)
        object.__setattr__(self, "vertices", verts)
        n = len(verts)
        if n < 3:
            raise ValueError("polygon needs at least 3 vertices")
        if not all(map(cmath.isfinite, verts)):
            raise ValueError("polygon vertices must be finite")
        for v in verts:
            _check_length("polygon vertex", math.hypot(v.real, v.imag), v)
        area2 = sum((verts[i].real * verts[(i + 1) % n].imag
                     - verts[(i + 1) % n].real * verts[i].imag) for i in range(n))
        if abs(area2) < 1e-300:
            raise ValueError("polygon vertices are collinear")
        for i in range(n):
            for j in range(i + 1, n):
                if j == i or (j + 1) % n == i or (i + 1) % n == j:
                    continue  # adjacent edges share a vertex; skip
                if _segments_properly_intersect(verts[i], verts[(i + 1) % n],
                                                verts[j], verts[(j + 1) % n]):
                    raise ValueError("polygon is self-intersecting")

    def _edges(self):
        v = np.asarray(self.vertices, dtype=complex)
        return v, np.roll(v, -1)

    def contains(self, zeta):
        # even-odd rule, vectorized over zeta
        z = np.asarray(zeta)
        x, y = z.real, z.imag
        inside = np.zeros(z.shape, dtype=bool)
        a, b = self._edges()
        for p, q in zip(a, b):
            cond = (p.imag > y) != (q.imag > y)
            with np.errstate(invalid="ignore", divide="ignore"):
                xi = p.real + (y - p.imag) * (q.real - p.real) / (q.imag - p.imag)
            inside ^= cond & (x < xi)
        return inside if inside.shape else bool(inside)

    def primitives(self):
        yield self

    def _scaled(self, lam):
        return SimplePolygon(tuple(v * lam for v in self.vertices))

    def ray_crossings(self, origin, dirs):
        a, b = self._edges()
        e = b - a  # edge vectors
        out = np.full((len(dirs), len(a)), np.nan)
        for k in range(len(a)):
            # solve origin + t*u = a + s*e: cross with e gives t, with u gives s
            den = dirs.real * e[k].imag - dirs.imag * e[k].real
            ao = a[k] - origin
            with np.errstate(invalid="ignore", divide="ignore"):
                t = (ao.real * e[k].imag - ao.imag * e[k].real) / den
                s = (ao.real * dirs.imag - ao.imag * dirs.real) / den
            ok = (den != 0) & (s >= 0.0) & (s <= 1.0)
            out[ok, k] = t[ok]
        return out

    def kink_angles(self, origin):
        return [math.atan2((v - origin).imag, (v - origin).real)
                for v in self.vertices]

    def to_obj(self):
        return {"polygon": {"vertices": [[v.real, v.imag] for v in self.vertices]}}


class _Node(PlanarDomain):
    def __init__(self, *args):
        if not args:
            raise ValueError("composite domain needs at least one argument")
        self.args = tuple(args)

    def primitives(self):
        for a in self.args:
            yield from a.primitives()

    def __eq__(self, other):
        return type(self) is type(other) and self.args == other.args

    def __hash__(self):
        return hash((type(self).__name__, self.args))

    def __repr__(self):
        return f"{type(self).__name__}{self.args!r}"


class Union(_Node):
    def contains(self, zeta):
        out = self.args[0].contains(zeta)
        for a in self.args[1:]:
            out = out | a.contains(zeta)
        return out

    def _scaled(self, lam):
        return Union(*(a._scaled(lam) for a in self.args))

    def to_obj(self):
        return {"op": "union", "args": [a.to_obj() for a in self.args]}


class Intersection(_Node):
    def contains(self, zeta):
        out = self.args[0].contains(zeta)
        for a in self.args[1:]:
            out = out & a.contains(zeta)
        return out

    def _scaled(self, lam):
        return Intersection(*(a._scaled(lam) for a in self.args))

    def to_obj(self):
        return {"op": "intersection", "args": [a.to_obj() for a in self.args]}


class Difference(_Node):
    def __init__(self, left, right):
        super().__init__(left, right)

    def contains(self, zeta):
        return self.args[0].contains(zeta) & ~self.args[1].contains(zeta)

    def _scaled(self, lam):
        return Difference(self.args[0]._scaled(lam), self.args[1]._scaled(lam))

    def to_obj(self):
        return {"op": "difference", "args": [a.to_obj() for a in self.args]}


def dogbone(epsilon: float) -> PlanarDomain:
    """The dogbone region: two small disks joined by a corridor.

    The region is Disk(1, 1/4) u Disk(-1, 1/4) u { |zeta| < 1, |Im zeta| < eps^3 }
    for eps in (0, 1/2), invariant under zeta -> -zeta.  The corridor is kept
    verbatim as the intersection of the unit disk with a horizontal strip,
    not simplified to a rectangle.
    """
    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"epsilon must lie in (0, 1/2), got {epsilon}")
    h = epsilon**3
    corridor = Intersection(
        Disk(0.0, 1.0),
        HalfPlane(1j, -h),    # Im zeta > -h
        HalfPlane(-1j, -h),   # Im zeta <  h
    )
    return Union(Disk(1.0 + 0j, 0.25), Disk(-1.0 + 0j, 0.25), corridor)


# -- boundary arrangement -------------------------------------------------------


def _frozen(values) -> np.ndarray:
    """A read-only view of ``values`` as an array."""
    arr = np.asarray(values).view()
    arr.flags.writeable = False
    return arr


# Curves within this relative distance of each other are one curve; near
# misses within _TOUCH still cut each other (an extra cut is harmless).
_SAME = 1e-12
_TOUCH = 1e-10


@dataclass(frozen=True)
class BoundaryPieces:
    """The boundary of a domain tree as oriented segments and circular arcs.

    Every piece has the domain on its left.  Segment j is
    ``seg_anchor[j] + s * seg_dir[j]`` (unit ``seg_dir``) for s from
    ``seg_lo[j]`` to ``seg_hi[j]``; either end may be infinite.  Arc k is
    ``arc_center[k] + arc_radius[k] * exp(i psi)`` for psi from
    ``arc_start[k]`` through the signed ``arc_sweep[k]``.  ``at_infinity``
    is the angle of directions in which the domain reaches infinity, and
    ``extent`` bounds |xi| over every corner, anchor and circle: the bound
    given, raised to cover the corners.  ``radius`` is the largest |xi| on
    the pieces (inf for an unbounded region, 0 for an empty one): an arc
    peaks where it crosses the ray from 0 through its centre, any other
    piece at a corner.  The arrays are read-only.
    """

    seg_anchor: np.ndarray
    seg_dir: np.ndarray
    seg_lo: np.ndarray
    seg_hi: np.ndarray
    arc_center: np.ndarray
    arc_radius: np.ndarray
    arc_start: np.ndarray
    arc_sweep: np.ndarray
    at_infinity: float
    extent: float
    radius: float = field(init=False)

    def __post_init__(self):
        for name in ("seg_anchor", "seg_dir", "seg_lo", "seg_hi",
                     "arc_center", "arc_radius", "arc_start", "arc_sweep"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        corner = float(np.abs(self.corners()).max(initial=0.0))
        object.__setattr__(self, "extent", max(self.extent, corner))
        c, sweep = self.arc_center, self.arc_sweep
        crosses = (c == 0) | ((np.angle(c) - self.arc_start) * np.sign(sweep)
                              % (2.0 * math.pi) <= np.abs(sweep))
        peak = float((np.abs(c) + self.arc_radius)[crosses].max(initial=0.0))
        bounded = self.at_infinity == 0 and np.isfinite([self.seg_lo, self.seg_hi]).all()
        object.__setattr__(self, "radius", max(corner, peak) if bounded else math.inf)

    def corners(self) -> np.ndarray:
        """The finite endpoints of the pieces."""
        ends = np.concatenate([self.seg_lo, self.seg_hi])
        anchors = np.concatenate([self.seg_anchor, self.seg_anchor])
        dirs = np.concatenate([self.seg_dir, self.seg_dir])
        fin = np.isfinite(ends)
        psi = np.concatenate([self.arc_start, self.arc_start + self.arc_sweep])
        return np.concatenate([
            anchors[fin] + ends[fin] * dirs[fin],
            np.tile(self.arc_center, 2) + np.tile(self.arc_radius, 2) * np.exp(1j * psi)])


def _curves(domain: PlanarDomain, scale: float):
    """The distinct boundary curves of the primitives.

    Circles are ``(center, radius)``; lines are ``(anchor, unit direction,
    covered parameter intervals)``, a half-plane covering its whole line and
    a polygon edge its segment.  Coincident curves are merged into one, so
    equal circles, identical lines and overlapping collinear edges each give
    one curve.
    """
    circles, lines = [], []
    tol = _SAME * scale

    def add_line(anchor, u, lo, hi):
        for p, v, cover in lines:
            if abs(_cross(v, u)) <= _SAME and abs(_cross(v, anchor - p)) <= tol:
                s = ((anchor - p) * v.conjugate()).real
                k = (u * v.conjugate()).real  # +-1
                a, b = s + k * lo, s + k * hi
                cover.append((min(a, b), max(a, b)))
                return
        lines.append((anchor, u, [(lo, hi)]))

    for prim in domain.primitives():
        if isinstance(prim, Disk):
            if not any(abs(c - prim.center) <= tol and abs(r - prim.radius) <= tol
                       for c, r in circles):
                circles.append((complex(prim.center), float(prim.radius)))
        elif isinstance(prim, HalfPlane):  # normal is unit only to 1e-12
            k = abs(prim.normal)
            add_line(prim.offset * prim.normal / (k * k), -1j * prim.normal / k,
                     -math.inf, math.inf)
        else:  # SimplePolygon
            for p, q in zip(*(e.tolist() for e in prim._edges())):
                add_line(p, (q - p) / abs(q - p), 0.0, abs(q - p))
    return circles, lines


def _meet(a, b):
    """Intersection points of two curves (see :func:`_curves`).

    Tangencies and near misses within ``_TOUCH`` give the touching point.
    """
    if len(a) == 3 and len(b) == 3:
        (p1, u1, _), (p2, u2, _) = a, b
        den = _cross(u1, u2)
        return [p1 + (_cross(p2 - p1, u2) / den) * u1] if den != 0.0 else []
    if len(a) == 3:
        a, b = b, a
    c, r = a
    if len(b) == 2:  # circle and circle: foot on the center line, half chord
        d = abs(b[0] - c)
        if d == 0.0:
            return []
        along = (d * d + r * r - b[1] * b[1]) / (2.0 * d)
        h2 = r * r - along * along
        base, e, normal = c, (b[0] - c) / d, 1j
    else:  # circle and line: foot of the center on the line, half chord
        p, e, _ = b
        dist = _cross(e, p - c)
        h2 = (r - dist) * (r + dist)
        base, along, normal = p, -((p - c) * e.conjugate()).real, 1.0
    if h2 < -_TOUCH * r * r:
        return []
    h = normal * math.sqrt(max(h2, 0.0))
    return [base + (along + h) * e, base + (along - h) * e]


def _intervals(cuts, closed):
    """Consecutive (lo, hi) between sorted cuts; ``closed`` wraps by 2 pi."""
    cuts = sorted(cuts)
    if closed:
        if not cuts:
            return [(0.0, 2.0 * math.pi)]
        ends = cuts + [cuts[0] + 2.0 * math.pi]
    else:
        ends = [-math.inf] + cuts + [math.inf]
    return [(lo, hi) for lo, hi in zip(ends[:-1], ends[1:])
            if math.isinf(hi - lo) or hi - lo > 1e-15 * max(1.0, abs(lo))]


def boundary_pieces(domain: PlanarDomain) -> BoundaryPieces:
    """The arrangement of the primitive boundaries, clipped to the tree's boundary.

    Circles and lines (polygon edges included) are cut at their mutual
    intersections and at edge ends.  A cut piece is kept when membership
    differs between two probes on either side of its middle, and oriented
    so that the domain lies on its left; all probes go through one
    ``contains`` call.  Directions at infinity between consecutive
    half-plane directions are probed far out, beyond every corner.  Raises
    ValueError when two half-plane boundaries cross farther out than
    ``_LENGTH_MAX`` (near-parallel lines), a corner the boundary sum cannot
    evaluate.

    A domain is immutable, so its arrangement is built once and kept on the
    domain object: every later call with the same object, such as a verdict
    and a zero-locus report on one region, returns the same read-only
    pieces.
    """
    pieces = getattr(domain, "_pieces", None)
    if pieces is None:  # two threads here at once build equal arrangements
        pieces = _arrangement(domain)
        object.__setattr__(domain, "_pieces", pieces)
    return pieces


def _arrangement(domain: PlanarDomain) -> BoundaryPieces:
    """Build the arrangement of :func:`boundary_pieces` for a domain tree."""
    prims = list(domain.primitives())
    scale = 1.0 + max(abs(p.center) + p.radius if isinstance(p, Disk) else
                      abs(p.offset) if isinstance(p, HalfPlane) else
                      max(map(abs, p.vertices)) for p in prims)
    circles, lines = _curves(domain, scale)
    curves = circles + lines
    # two whole lines (half-plane boundaries) must cross within the boundary
    # sum's reach: their crossing is a corner unless another primitive hides
    # it, and the far probes below go beyond it.  A crossing that far out
    # with a polygon edge's line lies off the edge and cuts nothing kept.
    whole = [len(cv) == 3 and any(math.isinf(s) for iv in cv[2] for s in iv)
             for cv in curves]
    cuts = [[] for _ in curves]
    reach = scale  # beyond every cut
    for i, a in enumerate(curves):
        for j in range(i + 1, len(curves)):
            for pt in _meet(a, curves[j]):
                if whole[i] and whole[j]:
                    _check_length("boundary corner", abs(pt), pt)
                reach = max(reach, abs(pt))
                cuts[i].append(pt)
                cuts[j].append(pt)

    # candidate pieces: (curve, lo, hi, probe parameter, length)
    cands = []
    for i, (c, r) in enumerate(circles):
        params = [math.atan2((pt - c).imag, (pt - c).real) for pt in cuts[i]]
        cands += [(i, lo, hi, 0.5 * (lo + hi), r * (hi - lo))
                  for lo, hi in _intervals(params, True)]
    for i, (p, u, cover) in enumerate(lines, len(circles)):
        params = [((pt - p) * u.conjugate()).real for pt in cuts[i]]
        params += [s for iv in cover for s in iv if math.isfinite(s)]
        for lo, hi in _intervals(params, False):
            mid = (0.5 * (lo + hi) if math.isfinite(lo + hi) else
                   lo + reach if math.isfinite(lo) else
                   hi - reach if math.isfinite(hi) else 0.0)
            if any(a <= mid <= b for a, b in cover):
                cands.append((i, lo, hi, mid, hi - lo))

    # probe base points and left normals of the pieces run forward (arcs
    # counterclockwise, lines along their direction)
    idx, lo, hi, mid, length = np.array(cands, dtype=float).reshape(-1, 5).T
    idx = idx.astype(int)
    is_arc = idx < len(circles)
    center = np.array([cv[0] for cv in curves], dtype=complex)[idx]
    radius = np.array([cv[1] if len(cv) == 2 else 0.0 for cv in curves])[idx]
    u = np.array([cv[1] if len(cv) == 3 else 1.0 for cv in curves], dtype=complex)[idx]
    ray = np.exp(1j * mid)
    base = np.where(is_arc, center + radius * ray, center + mid * u)
    left = np.where(is_arc, -ray, 1j * u)
    # each probe stays closer to its piece than to every other curve
    gap = np.full((len(cands), len(curves)), np.inf)
    for j, cv in enumerate(curves):
        gap[:, j] = (np.abs(np.abs(base - cv[0]) - cv[1]) if len(cv) == 2
                     else np.abs(_cross(cv[1], base - cv[0])))
    gap[np.arange(len(cands)), idx] = np.inf
    delta = np.minimum(np.minimum(0.5 * gap.min(axis=1, initial=np.inf),
                                  1e-3 * length), reach)

    # directions at infinity: arcs between consecutive half-plane directions
    dirs = sorted({math.atan2(v.imag, v.real) % (2.0 * math.pi)
                   for cv, w in zip(curves, whole) if w for v in (cv[1], -cv[1])})
    gaps = np.diff(np.array(dirs + dirs[:1]) if dirs else np.array([]))
    gaps = gaps % (2.0 * math.pi)
    far = (2.0 * (reach + 1.0) / np.sin(0.5 * gaps)
           * np.exp(1j * (np.array(dirs) + 0.5 * gaps)))

    inside = domain.contains(np.concatenate(
        [base + delta * left, base - delta * left, far]))
    n = len(cands)
    on_left, on_right, at_far = inside[:n], inside[n:2 * n], inside[2 * n:]
    keep = on_left != on_right
    fwd, lo, hi = on_left[keep], lo[keep], hi[keep]
    arc, seg = is_arc[keep], ~is_arc[keep]
    return BoundaryPieces(
        seg_anchor=center[keep][seg],
        seg_dir=np.where(fwd, u[keep], -u[keep])[seg],
        seg_lo=np.where(fwd, lo, -hi)[seg],
        seg_hi=np.where(fwd, hi, -lo)[seg],
        arc_center=center[keep][arc],
        arc_radius=radius[keep][arc],
        arc_start=np.where(fwd, lo, hi)[arc],
        arc_sweep=np.where(fwd, hi - lo, lo - hi)[arc],
        at_infinity=float(gaps[at_far].sum()),
        extent=scale,
    )


# -- JSON wire format ----------------------------------------------------------

_OPS = {"union": Union, "intersection": Intersection, "difference": Difference}


def _complex(xy) -> complex:
    if not (isinstance(xy, (list, tuple)) and len(xy) == 2):
        raise ValueError(f"a coordinate list needs two numbers, got {xy!r}")
    return complex(xy[0], xy[1])


def domain_from_obj(obj) -> PlanarDomain:
    """Parse the tagged-union JSON tree into a domain."""
    if not isinstance(obj, dict) or len(obj) == 0:
        raise ValueError(f"malformed domain node: {obj!r}")
    if "op" in obj:
        op = obj["op"]
        if op not in _OPS:
            raise ValueError(f"unknown domain op {op!r}")
        args = [domain_from_obj(a) for a in obj.get("args", [])]
        if op == "difference" and len(args) != 2:
            raise ValueError("difference takes exactly two arguments")
        return _OPS[op](*args)
    if "disk" in obj:
        d = obj["disk"]
        return Disk(_complex(d["c"]), float(d["r"]))
    if "halfplane" in obj:
        h = obj["halfplane"]
        return HalfPlane(_complex(h["n"]), float(h["offset"]))
    if "polygon" in obj:
        return SimplePolygon(tuple(map(_complex, obj["polygon"]["vertices"])))
    if "dogbone" in obj:
        return dogbone(float(obj["dogbone"]["eps"]))
    raise ValueError(f"unknown domain node: {sorted(obj)!r}")

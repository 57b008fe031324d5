"""Composable planar regions serving as boundary data on the plane at infinity.

A domain is an expression tree over three primitives (disks, half-planes,
simple polygons) combined by union / intersection / difference.  Membership
is exact; behaviour exactly on the topological boundary is unspecified
(either value may be returned), which is harmless because domains only enter
through integrals.

Beyond membership, every domain knows how to intersect rays with its
primitive boundaries (the quadrature engine integrates the Poisson kernel
radially in closed form between crossings), how to rescale itself, and how
to sample its boundary for Hausdorff comparisons.

The JSON wire format is a tagged-union tree, e.g.::

    {"op": "union", "args": [{"disk": {"c": [1, 0], "r": 0.25}}, ...]}
    {"dogbone": {"eps": 0.1}}

which is the CLI's input contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PlanarDomain",
    "Disk",
    "HalfPlane",
    "SimplePolygon",
    "Union",
    "Intersection",
    "Difference",
    "DogboneSpec",
    "dogbone",
    "reflection_symmetric",
    "hausdorff_distance",
    "boundary_points",
    "domain_from_obj",
]


class PlanarDomain:
    """Base class of the domain expression tree.  Immutable after construction."""

    def contains(self, zeta):
        """Membership test; accepts a complex scalar or ndarray."""
        raise NotImplementedError

    @property
    def bounding_radius(self) -> float:
        """Radius of a centered disk containing the domain; inf if unbounded."""
        raise NotImplementedError

    def primitives(self):
        """Iterate the primitive leaves of the tree."""
        raise NotImplementedError

    def scaled(self, lam: float) -> "PlanarDomain":
        """The dilated domain ``lam * Omega``."""
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

    # conveniences

    def union(self, other):
        return Union(self, other)

    def intersection(self, other):
        return Intersection(self, other)

    def difference(self, other):
        return Difference(self, other)


@dataclass(frozen=True)
class Disk(PlanarDomain):
    center: complex
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError(f"disk radius must be positive, got {self.radius}")

    def contains(self, zeta):
        return np.abs(np.asarray(zeta) - self.center) < self.radius

    @property
    def bounding_radius(self) -> float:
        return abs(self.center) + self.radius

    def primitives(self):
        yield self

    def scaled(self, lam):
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
        n = abs(self.normal)
        if n == 0:
            raise ValueError("half-plane normal must be nonzero")
        if abs(n - 1.0) > 1e-12:
            object.__setattr__(self, "normal", self.normal / n)

    def contains(self, zeta):
        return (self.normal.conjugate() * np.asarray(zeta)).real > self.offset

    @property
    def bounding_radius(self) -> float:
        return math.inf

    def primitives(self):
        yield self

    def scaled(self, lam):
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


def _segments_properly_intersect(p1, p2, q1, q2) -> bool:
    def cross(a, b):
        return a.real * b.imag - a.imag * b.real

    d1 = cross(q2 - q1, p1 - q1)
    d2 = cross(q2 - q1, p2 - q1)
    d3 = cross(p2 - p1, q1 - p1)
    d4 = cross(p2 - p1, q2 - p1)
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

    @property
    def bounding_radius(self) -> float:
        return max(abs(v) for v in self.vertices)

    def primitives(self):
        yield self

    def scaled(self, lam):
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

    @property
    def bounding_radius(self):
        return max(a.bounding_radius for a in self.args)

    def scaled(self, lam):
        return Union(*(a.scaled(lam) for a in self.args))

    def to_obj(self):
        return {"op": "union", "args": [a.to_obj() for a in self.args]}


class Intersection(_Node):
    def contains(self, zeta):
        out = self.args[0].contains(zeta)
        for a in self.args[1:]:
            out = out & a.contains(zeta)
        return out

    @property
    def bounding_radius(self):
        return min(a.bounding_radius for a in self.args)

    def scaled(self, lam):
        return Intersection(*(a.scaled(lam) for a in self.args))

    def to_obj(self):
        return {"op": "intersection", "args": [a.to_obj() for a in self.args]}


class Difference(_Node):
    def __init__(self, left, right):
        super().__init__(left, right)

    def contains(self, zeta):
        return self.args[0].contains(zeta) & ~self.args[1].contains(zeta)

    @property
    def bounding_radius(self):
        return self.args[0].bounding_radius

    def scaled(self, lam):
        return Difference(self.args[0].scaled(lam), self.args[1].scaled(lam))

    def to_obj(self):
        return {"op": "difference", "args": [a.to_obj() for a in self.args]}


@dataclass(frozen=True)
class DogboneSpec:
    """Parameters of the dogbone region: two small disks joined by a corridor.

    The region is Disk(1, 1/4) u Disk(-1, 1/4) u { |zeta| < 1, |Im zeta| < eps^3 },
    invariant under zeta -> -zeta.  The corridor is kept verbatim as the
    intersection of the unit disk with a horizontal strip, not simplified to
    a rectangle.
    """

    epsilon: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError(f"epsilon must lie in (0, 1/2), got {self.epsilon}")

    @property
    def corridor_half_height(self) -> float:
        return self.epsilon**3

    def build(self) -> PlanarDomain:
        h = self.corridor_half_height
        corridor = Intersection(
            Disk(0.0, 1.0),
            HalfPlane(1j, -h),    # Im zeta > -h
            HalfPlane(-1j, -h),   # Im zeta <  h
        )
        return Union(Disk(1.0 + 0j, 0.25), Disk(-1.0 + 0j, 0.25), corridor)


def dogbone(epsilon: float) -> PlanarDomain:
    """The dogbone domain with corridor half-height ``epsilon**3``."""
    return DogboneSpec(epsilon).build()


def reflection_symmetric(domain: PlanarDomain, samples: int, seed: int) -> bool:
    """Monte Carlo test of invariance under ``zeta -> -zeta``.

    Deterministic given ``seed``; samples are drawn uniformly from the
    bounding disk (a window of radius 10 if the domain is unbounded).
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    radius = domain.bounding_radius
    if not math.isfinite(radius):
        radius = 10.0
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, samples))
    phi = rng.uniform(0.0, 2.0 * math.pi, samples)
    z = r * np.exp(1j * phi)
    return bool(np.all(domain.contains(z) == domain.contains(-z)))


def _as_points(cloud) -> np.ndarray:
    arr = np.asarray(cloud)
    if arr.size == 0:
        raise ValueError("empty point cloud")
    if np.iscomplexobj(arr):
        return np.column_stack([arr.real.ravel(), arr.imag.ravel()])
    arr = np.atleast_2d(arr).astype(float)
    if arr.shape[1] != 2:
        raise ValueError("point cloud must be complex or of shape (n, 2)")
    return arr


def hausdorff_distance(a, b) -> float:
    """Hausdorff distance between two nonempty point clouds.

    Clouds are complex arrays or (n, 2) real arrays.  Symmetric; the max of
    the two directed sup-inf distances, via KD-trees.
    """
    from scipy.spatial import cKDTree  # here, not at module level: slow to import

    pa, pb = _as_points(a), _as_points(b)
    d_ab = cKDTree(pb).query(pa)[0].max()
    d_ba = cKDTree(pa).query(pb)[0].max()
    return float(max(d_ab, d_ba))


def boundary_points(domain: PlanarDomain, per_primitive: int = 1024,
                    window: float | None = None, probe: float = 1e-7) -> np.ndarray:
    """Sample the topological boundary of a domain tree.

    Each primitive's boundary arc is sampled at uniform parameter density and
    clipped by the tree: a candidate survives iff membership differs on the
    two sides of the primitive boundary at distance ``probe``.
    """
    if window is None:
        r = domain.bounding_radius
        window = 2.0 * r if math.isfinite(r) else 10.0
    keep = []
    for prim in domain.primitives():
        if isinstance(prim, Disk):
            t = np.linspace(0.0, 2.0 * math.pi, per_primitive, endpoint=False)
            pts = prim.center + prim.radius * np.exp(1j * t)
            normals = np.exp(1j * t)
        elif isinstance(prim, HalfPlane):
            tangent = 1j * prim.normal
            base = prim.offset * prim.normal
            t = np.linspace(-window, window, per_primitive)
            pts = base + t * tangent
            normals = np.full(per_primitive, prim.normal)
        else:  # SimplePolygon
            a, b = prim._edges()
            chunks, nrm = [], []
            n_edge = max(2, per_primitive // len(a))
            for p, q in zip(a, b):
                s = np.linspace(0.0, 1.0, n_edge, endpoint=False)
                chunks.append(p + s * (q - p))
                edge = (q - p) / abs(q - p)
                nrm.append(np.full(n_edge, -1j * edge))
            pts = np.concatenate(chunks)
            normals = np.concatenate(nrm)
        inner = domain.contains(pts - probe * normals)
        outer = domain.contains(pts + probe * normals)
        on_boundary = inner != outer
        keep.append(pts[on_boundary])
    out = np.concatenate(keep) if keep else np.array([], dtype=complex)
    if out.size == 0:
        raise ValueError("no boundary points survived clipping")
    return out


# -- JSON wire format ----------------------------------------------------------

_OPS = {"union": Union, "intersection": Intersection, "difference": Difference}


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
        return Disk(complex(d["c"][0], d["c"][1]), float(d["r"]))
    if "halfplane" in obj:
        h = obj["halfplane"]
        return HalfPlane(complex(h["n"][0], h["n"][1]), float(h["offset"]))
    if "polygon" in obj:
        verts = tuple(complex(v[0], v[1]) for v in obj["polygon"]["vertices"])
        return SimplePolygon(verts)
    if "dogbone" in obj:
        return dogbone(float(obj["dogbone"]["eps"]))
    raise ValueError(f"unknown domain node: {sorted(obj)!r}")

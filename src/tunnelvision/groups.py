"""Regular 4g-gons, their side-pairing surface groups, and orbit machinery.

The regular hyperbolic 4g-gon centered at 0 in the Poincare disk with
interior angles pi/(2g) tiles the disk under the group generated by its
side pairings; the quotient is a closed genus-g surface.  Dissecting the
polygon into 8g right triangles with angles (pi/2, pi/4g, pi/4g) gives the
closed forms

    center-to-edge-midpoint  ya = arccosh(cot(pi/4g)),
    center-to-vertex          R = arccosh(cot^2(pi/4g)),

with R < 2 ya, Euclidean inradius r = tanh(ya/2), and hyperbolic area
4 pi (g - 1) by angle defect.

Edges are labeled a1, b1, a1^-1, b1^-1, ..., counterclockwise.  Each pairing
map is built as (rotation about 0) o (hyperbolic translation of length 2 ya
along the axis perpendicular to the source edge); correctness is enforced by
the relator product and fundamental-domain tests, not by derivation, and
tests must not assume specific matrix entries (any conjugate choice is as
good).  Word enumeration goes by length shells.  Each shell extends every
word of the previous one by every letter that does not backtrack, and
writes each product out entry by entry (a e + b g, a f + b h, c e + d g,
c f + d h), each entry one broadcast product of the shell's entry planes
with the letters' entries.  The relator has even length, so a new word of
length n + 1 is an element of length n + 1 or n - 1 and is compared only
with the other new words and with shell n - 1, by the orbit point of 0 (its
hyperboloid coordinate 2ab, unchanged under M -> -M).  Distinct orbit
points lie at least 2 sinh(ya) apart (4.39 for genus 2), as the polygon
holds the disk of radius ya about 0, so no tolerance is needed: a sort and
sweep over the keys' real parts finds the pairs within half that
separation, and the later word of each is dropped.

:func:`enumerate_group` returns the shells as one array record,
:class:`GroupElements`: the renormalized matrices, word lengths, and the
parent and letter index of every element.  Series and orbit computations
read those arrays directly.  The record is also a sequence of
:class:`GroupElement`; an element object and its word string are built only
when the record is indexed or iterated.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, replace

import numpy as np

from .domains import _frozen
from .hyperbolic import DiskPoint, MobiusMap, renormalize_batch

__all__ = [
    "PolygonData",
    "GroupElement",
    "GroupElements",
    "DedupCollisionError",
    "regular_polygon",
    "min_genus",
    "side_pairing_generators",
    "polygon_contains",
    "surface_relator",
    "enumerate_group",
    "orbit_cloud",
    "limit_set_sample",
]


class DedupCollisionError(RuntimeError):
    """Two orbit points were neither numerically equal nor separated."""


@dataclass(frozen=True)
class PolygonData:
    """Closed-form data of the regular 4g-gon with angle sum 2 pi."""

    genus: int
    center_to_edge: float       # distance from 0 to an edge midpoint
    center_to_vertex: float     # distance from 0 to a vertex
    inradius_euclidean: float   # Euclidean radius of the inscribed circle
    area: float
    interior_angle: float

    def to_obj(self):
        return asdict(self)


@dataclass(frozen=True)
class GroupElement:
    """A disk-preserving isometry with the reduced word that produced it.

    Words use 'a1', 'b1', ... for generators and capitalized letters for
    inverses, joined by '.'; the identity has the empty word.
    """

    map: MobiusMap
    word: str

    @property
    def word_length(self) -> int:
        return 0 if not self.word else self.word.count(".") + 1


@dataclass(frozen=True, eq=False, repr=False)
class GroupElements(Sequence):
    """Group elements as one array record, ordered by word length.

    ``matrices`` (n, 2, 2) are unit-determinant as :class:`MobiusMap`'s rule
    leaves them and ``lengths`` are the word lengths, non-decreasing.  The
    word of element i is ``names[letter[i]]`` appended with a '.' to the
    word of ``parent[i]``, or alone when that word is empty or the parent
    is -1; the identity has letter -1.  A parent lies in the shell before
    its child's.

    As a sequence of :class:`GroupElement` it supports ``len``, int and
    negative indexing, prefix slices (which give records) and iteration; an
    element object and its word are built only when asked for.
    """

    matrices: np.ndarray
    lengths: np.ndarray
    parent: np.ndarray
    letter: np.ndarray
    names: tuple

    def __post_init__(self):
        object.__setattr__(self, "matrices",
                           _frozen(np.asarray(self.matrices, complex)).reshape(-1, 2, 2))
        for field in ("lengths", "parent", "letter"):
            object.__setattr__(self, field,
                               _frozen(np.asarray(getattr(self, field), np.int64)))
        object.__setattr__(self, "names", tuple(self.names))
        n = len(self.lengths)
        if not len(self.matrices) == len(self.parent) == len(self.letter) == n:
            raise ValueError("one matrix, parent and letter per element required")
        if np.any(np.diff(self.lengths) < 0):
            raise ValueError("elements must be ordered by word length")

    def __len__(self) -> int:
        return len(self.lengths)

    def _spell(self, stem: str, letter: int) -> str:
        name = self.names[letter] if letter >= 0 else ""
        return f"{stem}.{name}" if stem else name

    def _word(self, i: int) -> str:
        p = int(self.parent[i])
        return self._spell(self._word(p) if p >= 0 else "", int(self.letter[i]))

    def __getitem__(self, key):
        if isinstance(key, slice):
            rows = range(len(self))[key]
            if rows != range(len(rows)):
                raise ValueError("only prefix slices of GroupElements are supported")
            n = len(rows)
            return replace(self, matrices=self.matrices[:n], lengths=self.lengths[:n],
                           parent=self.parent[:n], letter=self.letter[:n])
        i = range(len(self))[key]
        return GroupElement(MobiusMap(*self.matrices[i].ravel().tolist()),
                            self._word(i))

    def __iter__(self):
        cuts = [0, *(np.flatnonzero(np.diff(self.lengths)) + 1).tolist(), len(self)]
        words, base = [], 0
        for lo, hi in zip(cuts, cuts[1:]):
            words = [self._spell(words[p - base] if p >= 0 else "", k)
                     for p, k in zip(self.parent[lo:hi].tolist(),
                                     self.letter[lo:hi].tolist())]
            base = lo
            for start in range(lo, hi, 4096):  # rows as Python numbers, a block at a time
                rows = self.matrices[start:min(start + 4096, hi)].reshape(-1, 4).tolist()
                for k, row in enumerate(rows, start - lo):
                    yield GroupElement(MobiusMap(*row), words[k])


def regular_polygon(genus: int) -> PolygonData:
    if genus < 2:
        raise ValueError(f"genus must be >= 2, got {genus}")
    alpha = math.pi / (4.0 * genus)
    ya = math.acosh(1.0 / math.tan(alpha))
    big_r = math.acosh(1.0 / math.tan(alpha) ** 2)
    return PolygonData(
        genus=genus,
        center_to_edge=ya,
        center_to_vertex=big_r,
        inradius_euclidean=math.tanh(ya / 2.0),
        area=4.0 * math.pi * (genus - 1),
        interior_angle=math.pi / (2.0 * genus),
    )


def min_genus(delta: float) -> int:
    """Least genus guaranteeing the polygon contains the disk of radius 1-delta.

    Evaluates 1 + ceil(1/delta^2); the ceiling is guarded against float
    representation noise so inputs whose exact value sits on an integer
    (e.g. delta = 1/2, or delta arbitrarily close to 1) round as intended.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    return 1 + math.ceil(1.0 / delta**2 - 1e-12)


def _edge_midpoint_angles(genus: int) -> np.ndarray:
    n = 4 * genus
    return (2.0 * np.arange(n) + 1.0) * math.pi / n


def _pairing_map(theta_src: float, theta_dst: float, ya: float) -> MobiusMap:
    """Isometry carrying the edge at angle theta_src onto the edge at theta_dst.

    Translation by 2 ya along the axis through the source edge's midpoint
    carries the edge to the antipodal slot (reversing its orientation, which
    is exactly what the gluing scheme needs); a rotation then parks it at the
    destination.
    """
    axis = theta_src + math.pi
    t = (MobiusMap.disk_rotation(axis)
         @ MobiusMap.disk_translation(2.0 * ya)
         @ MobiusMap.disk_rotation(-axis))
    return MobiusMap.disk_rotation(theta_dst - theta_src - math.pi) @ t


def side_pairing_generators(genus: int) -> list[GroupElement]:
    """The 2g generators (a1, b1, ..., ag, bg) of the surface group.

    Each ai carries the edge labeled ai^-1 onto the edge labeled ai, and each
    bi the edge labeled bi onto the edge labeled bi^-1; with this convention
    the product of commutators [a1, b1] ... [ag, bg] is the identity in
    PSL(2, R)-conjugated form (+-identity as a matrix).
    """
    poly = regular_polygon(genus)
    thetas = _edge_midpoint_angles(genus)
    out = []
    for i in range(genus):
        a_edge, a_inv_edge = 4 * i, 4 * i + 2
        b_edge, b_inv_edge = 4 * i + 1, 4 * i + 3
        a = _pairing_map(thetas[a_inv_edge], thetas[a_edge], poly.center_to_edge)
        b = _pairing_map(thetas[b_edge], thetas[b_inv_edge], poly.center_to_edge)
        out.append(GroupElement(a, f"a{i + 1}"))
        out.append(GroupElement(b, f"b{i + 1}"))
    return out


def polygon_contains(genus: int, zeta: complex) -> bool:
    """Whether a disk-model point lies in the open fundamental polygon."""
    poly = regular_polygon(genus)
    r = poly.inradius_euclidean
    c = (r + 1.0 / r) / 2.0      # Euclidean center of each edge's geodesic circle
    rr = (1.0 / r - r) / 2.0     # and its radius (circle orthogonal to the unit one)
    if abs(zeta) >= 1.0:
        return False
    for th in _edge_midpoint_angles(genus):
        if abs(zeta - c * np.exp(1j * th)) <= rr:
            return False
    return True


def surface_relator(generators: list[GroupElement]) -> MobiusMap:
    """The product of commutators [a1, b1]...[ag, bg] over the generator list."""
    prod = MobiusMap.identity()
    for a, b in zip(generators[::2], generators[1::2]):
        prod = prod @ a.map @ b.map @ a.map.inverse() @ b.map.inverse()
    return prod


# -- enumeration -----------------------------------------------------------------

#: Near pairs farther apart than this fraction of the orbit separation are
#: ambiguous: roundoff no longer tells one element from two.
_AMBIGUOUS = 1e-3


def _near_pairs(keys: np.ndarray, radius: float) -> np.ndarray:
    """Index pairs (i, j), i < j, of complex keys at most ``radius`` apart.

    A sort and sweep (Shamos & Hoey, 1976) along the real or the imaginary
    part, whichever spreads wider: with the keys sorted by that coordinate,
    position i is compared with i + k for k = 1, 2, ... while the
    coordinate's gap stays within the radius.  That gap is one component of
    the difference whose modulus is tested, and it grows with k, so no pair
    within the radius is skipped and the set of active positions only
    shrinks.  The number of passes is the most keys in one radius-wide
    window of the coordinate, so keys on a vertical line are swept along
    the imaginary part.  Returns an (m, 2) integer array in no particular
    order.
    """
    coord = keys.real
    if len(keys) and np.ptp(keys.imag) > np.ptp(keys.real):
        coord = keys.imag
    order = np.argsort(coord)
    z, c = keys[order], coord[order]
    found = []
    active = np.arange(len(keys) - 1)
    k = 1
    while len(active):
        active = active[c[active + k] - c[active] <= radius]
        near = active[np.abs(z[active + k] - z[active]) <= radius]
        found.append(np.column_stack([order[near], order[near + k]]))
        k += 1
        active = active[active + k < len(keys)]
    pairs = np.concatenate(found) if found else np.empty((0, 2), dtype=np.intp)
    return np.sort(pairs, axis=1)


def _first_of_pairs(keys: np.ndarray, separation: float) -> np.ndarray:
    """Mask of the complex keys with no earlier key within half the separation."""
    pairs = _near_pairs(keys, separation / 2.0)
    keep = np.ones(len(keys), dtype=bool)
    if len(pairs):
        gap = np.abs(keys[pairs[:, 0]] - keys[pairs[:, 1]]).max()
        if gap > _AMBIGUOUS * separation:
            raise DedupCollisionError(f"orbit points {gap:.3e} apart "
                                      f"(separation {separation:.3f})")
        keep[pairs[:, 1]] = False
    return keep


def _shells(generators: list[GroupElement], depth: int):
    """Yield shells 1..depth as ``(mats, parent, letter)``, breadth-first.

    ``mats`` are raw (not renormalized) products, ``parent`` indexes the
    previous shell and ``letter`` the appended one (2i: generator i, 2i + 1:
    its inverse); rows are ordered by parent, then by letter.  The shell is
    kept as four entry planes a, b, c, d, and each candidate entry is one
    broadcast of a plane against the letters' entries, raveled row-major
    (by parent, then by letter) and masked to the words that are not free
    backtracks.
    """
    letters = np.array([m for gen in generators
                        for m in (gen.map.matrix(), gen.map.inverse().matrix())])
    (e, f), (g, h) = letters[:, 0].T, letters[:, 1].T
    ya = regular_polygon(len(generators) // 2).center_to_edge
    separation = 2.0 * math.sinh(ya)  # see the module docstring
    a, b, c, d = np.eye(2, dtype=complex).reshape(4, 1)  # the identity's planes
    backtrack = np.array([-1])
    old_keys, keys = np.empty(0, dtype=complex), np.zeros(1, dtype=complex)
    for _ in range(depth):
        reduced = (np.arange(len(letters)) != backtrack[:, None]).ravel()
        parent, letter = np.divmod(np.flatnonzero(reduced), len(letters))
        planes = [(x[:, None] * u + y[:, None] * v).ravel()[reduced]
                  for x, y in ((a, b), (c, d)) for u, v in ((e, g), (f, h))]
        both = np.concatenate([old_keys, 2.0 * planes[0] * planes[1]])
        new = _first_of_pairs(both, separation)[len(old_keys):]
        old_keys, keys = keys, both[len(old_keys):][new]
        a, b, c, d = (plane[new] for plane in planes)
        parent, letter = parent[new], letter[new]
        backtrack = letter ^ 1
        yield np.stack([a, b, c, d], axis=1).reshape(-1, 2, 2), parent, letter


def enumerate_group(generators: list[GroupElement],
                    max_word_length: int) -> GroupElements:
    """All elements of word length up to the bound, each with a shortest word.

    ``generators`` are those of :func:`side_pairing_generators`.  Ordered by
    shell, then parent word, then letter (a1, A1, b1, B1, ...); includes the
    identity.  Each matrix is ``MobiusMap(*row).matrix()`` of its raw
    product, bit for bit: :func:`renormalize_batch` keeps the rows whose
    numpy determinant lies inside half the rule's threshold (all rows of
    the records measured, to genus 2 depth 7) and sends the rest through
    :class:`MobiusMap`.  Raises DedupCollisionError if roundoff makes two orbit
    points neither equal nor separated.
    """
    if max_word_length < 0:
        raise ValueError("max_word_length must be >= 0")
    names = [name for gen in generators
             for name in (gen.word, gen.word.capitalize())]
    mats, lengths = [np.eye(2, dtype=complex)[None]], [np.zeros(1, dtype=np.int64)]
    parent, letter = [np.array([-1])], [np.array([-1])]
    prev, start = 0, 1  # first global index of the previous shell and of this one
    for length, (m, p, k) in enumerate(_shells(generators, max_word_length), 1):
        mats.append(m)
        lengths.append(np.full(len(m), length))
        parent.append(p + prev)
        letter.append(k)
        prev, start = start, start + len(m)
    mats = np.concatenate(mats)
    renormalize_batch(mats)
    return GroupElements(mats, np.concatenate(lengths), np.concatenate(parent),
                         np.concatenate(letter), names)


def orbit_cloud(elements: GroupElements, base: DiskPoint) -> np.ndarray:
    """Images of a disk point under every element, as a complex array.

    One array expression over the record's matrices: the denominators
    c zeta + d do not vanish, as the maps preserve the disk and |zeta| < 1.
    """
    m = elements.matrices
    z = base.zeta
    return (m[:, 0, 0] * z + m[:, 0, 1]) / (m[:, 1, 0] * z + m[:, 1, 1])


def limit_set_sample(genus: int, depth: int) -> np.ndarray:
    """Boundary-circle approximation from the deepest word shell.

    Images of 0 under all reduced words of exactly the maximal length,
    projected radially onto the unit circle.  For these first-type groups the
    limit set is the full circle, so the sample fills in as depth grows.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    for mats, _, _ in _shells(side_pairing_generators(genus), depth):
        pass  # only the deepest shell is sampled
    ws = mats[:, 0, 1] / mats[:, 1, 1]
    return ws / np.abs(ws)

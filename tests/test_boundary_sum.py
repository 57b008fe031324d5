"""The closed-form boundary sum against independent references.

References: the adaptive angular quadrature of the polar decomposition
(``ray_quadrature``), hand-built equivalent regions, 30-digit mpmath
boundary integrals with exact corners, and central differences.
"""

import cmath
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tunnelvision import measure
from tunnelvision.domains import (Difference, Disk, HalfPlane, Intersection,
                                  SimplePolygon, Union, boundary_pieces,
                                  dogbone)
from tunnelvision.hyperbolic import H3Point
from tunnelvision.measure import (harmonic_measure, measure_many,
                                  measure_with_gradient, ray_quadrature)

# -- random trees against the angular quadrature -----------------------------------

_coord = st.floats(-1.0, 1.0)


def _polygon(cx, cy, corners):
    # vertices sorted by angle about a center; the rare self-intersecting
    # draw falls back to a disk
    angles = sorted(a for a, _ in corners)
    try:
        return SimplePolygon(tuple(complex(cx, cy) + r * cmath.exp(1j * a)
                                   for a, (_, r) in zip(angles, corners)))
    except ValueError:
        return Disk(complex(cx, cy), 0.3)


_leaf = st.one_of(
    st.builds(lambda x, y, r: Disk(complex(x, y), r), _coord, _coord,
              st.floats(0.1, 1.0)),
    st.builds(lambda a, o: HalfPlane(cmath.exp(1j * a), o),
              st.floats(0.0, 2.0 * math.pi), st.floats(-0.8, 0.8)),
    st.builds(_polygon, st.floats(-0.8, 0.8), st.floats(-0.8, 0.8),
              st.lists(st.tuples(st.floats(0.0, 2.0 * math.pi),
                                 st.floats(0.2, 0.8)),
                       min_size=3, max_size=5,
                       unique_by=lambda t: round(t[0], 3))),
)


def _node(children):
    return st.builds(lambda op, a, b: op(a, b),
                     st.sampled_from([Union, Intersection, Difference]),
                     children, children)


_trees = st.one_of(_leaf, _node(st.one_of(_leaf, _node(_leaf))))
_points = st.lists(st.builds(lambda x, y, lz: H3Point(x, y, 10.0**lz),
                             st.floats(-1.2, 1.2), st.floats(-1.2, 1.2),
                             st.floats(-3.0, math.log10(4.0))),
                   min_size=3, max_size=3)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(_trees, _points)
def test_boundary_sum_matches_ray_quadrature(domain, points):
    for p, mv in zip(points, measure_many(domain, points)):
        ref = ray_quadrature(domain, p, 1e-12)
        assert abs(mv.value - ref.value) <= 1e-11, (domain, p)


# -- degenerate arrangements against equivalent regions ---------------------------

def _hp_minus(a, b):
    return lambda p: harmonic_measure(a, p).value - harmonic_measure(b, p).value


def _sum_of(*parts):
    return lambda p: sum(harmonic_measure(d, p).value for d in parts)


_UNIT_SQ = SimplePolygon((0, 1, 1 + 1j, 1j))
_WIDE = SimplePolygon((0, 1.5, 1.5 + 1j, 1j))
_LONG = SimplePolygon((0, 2, 2 + 1j, 1j))

DEGENERATE = {
    "disk united with itself": (Union(Disk(0.2, 0.7), Disk(0.2, 0.7)),
                                _sum_of(Disk(0.2, 0.7))),
    "overlapping collinear edges": (
        Union(_UNIT_SQ, SimplePolygon((0.5, 1.5, 1.5 + 1j, 0.5 + 1j))),
        _sum_of(_WIDE)),
    "squares sharing an edge": (
        Union(_UNIT_SQ, SimplePolygon((1, 2, 2 + 1j, 1 + 1j))), _sum_of(_LONG)),
    "tangent disks": (Union(Disk(0, 1.0), Disk(2.0, 1.0)),
                      _sum_of(Disk(0, 1.0), Disk(2.0, 1.0))),
    "half-plane minus a tangent disk": (
        Difference(HalfPlane(1j, 0.0), Disk(0.5j, 0.5)),
        _hp_minus(HalfPlane(1j, 0.0), Disk(0.5j, 0.5))),
    "strip": (Intersection(HalfPlane(1j, -0.2), HalfPlane(-1j, -0.2)),
              _hp_minus(HalfPlane(1j, -0.2), HalfPlane(1j, 0.2))),
    "plane off a line": (Union(HalfPlane(1j, 0.0), HalfPlane(-1j, 0.0)),
                         lambda p: 1.0),
    "identical half-planes": (
        Intersection(HalfPlane(1j, 0.2), HalfPlane(1j, 0.2)),
        _sum_of(HalfPlane(1j, 0.2))),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE))
def test_degenerate_arrangements(name):
    domain, expected = DEGENERATE[name]
    for p in (H3Point(0.1, 0.05, 0.3), H3Point(1.0, 0.5, 1.0),
              H3Point(-0.7, 0.2, 0.05), H3Point(1.0, 0.0, 0.2)):
        mv = harmonic_measure(domain, p)
        assert mv.value == pytest.approx(expected(p), abs=1e-14), p


# -- error bars against 30-digit boundary integrals ---------------------------------

def _dogbone_reference(eps, x, y, z):
    """f of dogbone(eps) at 30 digits, its corners computed in mpmath.

    The boundary: the corridor's two edges and the two long arcs of the
    small circles, between the corners where the edges meet the circles.
    """
    mp = mpmath.mp
    with mpmath.workdps(30):
        h = mp.mpf(eps**3)
        r = mp.mpf(0.25)
        a = 1 - mp.sqrt(r * r - h * h)
        beta = mp.asin(h / r)
        w = mp.mpc(x, y)
        z = mp.mpf(z)

        def integral(xi, dxi, lo, hi, star, scale):
            cuts = {lo, hi, *(star + s * scale * mp.mpf(10) ** k
                              for k in range(8) for s in (-1, 1))}
            q = lambda t: mp.im(mp.conj(xi(t) - w) * dxi(t)) / (
                abs(xi(t) - w) ** 2 + z * z)
            return mp.quad(q, sorted(c for c in cuts if lo <= c <= hi))

        total = mp.mpf(0)
        for sign in (1, -1):  # bottom edge rightwards, top edge leftwards
            total += integral(lambda s: mp.mpc(sign * s, -sign * h),
                              lambda s: sign, -a, a, sign * w.real, z)
            # the long arc of the small circle about +-1, counterclockwise
            c = mp.mpf(sign)
            lo = beta - (mp.pi if sign > 0 else 0)
            star = mp.arg(w - c) % (2 * mp.pi) - (mp.pi if sign > 0 else 0)
            total += integral(lambda t: c + r * mp.expj(t),
                              lambda t: 1j * r * mp.expj(t),
                              lo, lo + 2 * (mp.pi - beta), star, z / r)
        return float(total / (2 * mp.pi))


def test_error_bars_hold_near_corners():
    eps = 0.1
    d = dogbone(eps)
    corner = complex(1 - math.sqrt(0.0625 - (eps**3) ** 2), eps**3)
    pts = [H3Point(0.0, 0.0, z) for z in (1e-3, 0.16, 1.0)]
    pts += [H3Point((corner + off).real, (corner + off).imag, z)
            for z in (1e-3, 1e-5, 1e-7) for off in (2e-9j, -1e-8)]
    pts += [H3Point(0.4, -0.2, 0.7), H3Point(-1.1, 0.1, 0.05)]
    for p, mv in zip(pts, measure_many(d, pts)):
        ref = _dogbone_reference(eps, p.x, p.y, p.z)
        assert abs(mv.value - ref) <= mv.error, p


# -- gradients ------------------------------------------------------------------------

@pytest.mark.parametrize("domain", [
    dogbone(0.1),
    Difference(HalfPlane(np.exp(0.3j), -0.1), Disk(0.1, 0.4)),
    Intersection(SimplePolygon((1, -0.5 + 0.9j, -0.6 - 0.8j)), Disk(0.1, 0.8)),
], ids=["dogbone", "half-plane minus disk", "triangle and disk"])
def test_gradient_matches_central_differences(domain):
    for p in (H3Point(0.3, -0.2, 0.5), H3Point(-0.6, 0.4, 0.2),
              H3Point(0.9, 0.1, 1.5)):
        _, g, gerr = measure_with_gradient(domain, p)
        h = 1e-5 * p.z
        fd = [(harmonic_measure(domain, H3Point(*(p.as_array() + h * e))).value
               - harmonic_measure(domain, H3Point(*(p.as_array() - h * e))).value)
              / (2 * h) for e in np.eye(3)]
        assert np.allclose(g, fd, rtol=0, atol=1e-8 / p.z)
        assert np.all(gerr < 1e-12)


# -- coincident curves ----------------------------------------------------------------

def test_pieces_are_counted_once():
    pc = boundary_pieces(Intersection(HalfPlane(1j, 0.2), HalfPlane(1j, 0.2)))
    assert len(pc.seg_lo) == 1 and len(pc.arc_radius) == 0
    assert pc.at_infinity == pytest.approx(math.pi, abs=1e-15)
    pc = boundary_pieces(Union(Disk(0.2, 0.7), Disk(0.2, 0.7)))
    assert len(pc.arc_radius) == 1 and pc.arc_sweep[0] == 2.0 * math.pi


# -- row sums against math.fsum row by row -----------------------------------------

_RECORD = ("values", "errors", "converged", "gradients", "gradient_errors")


def _fsum_each_row(x):
    """The reference: ``math.fsum`` over every row, one call per row."""
    rows = x.reshape(math.prod(x.shape[:-1]), x.shape[-1]).tolist()
    return np.array([math.fsum(row) for row in rows]).reshape(x.shape[:-1])


def _record_bytes(record):
    return [None if getattr(record, name) is None else getattr(record, name).tobytes()
            for name in _RECORD]


@settings(derandomize=True, max_examples=40, deadline=None)
@given(_trees, st.integers(0, 2**32 - 1))
def test_row_sums_give_fsum_bits_at_every_batch_size(domain, seed):
    # batches of 1 and 2 points, and batches just below and at or above the
    # kernel's size cut-off for both the value and the gradient terms
    pc = boundary_pieces(domain)
    width_value = len(pc.seg_lo) + 2 * len(pc.arc_radius) + 1
    width_grad = 3 * (len(pc.seg_lo) + len(pc.arc_radius))
    below = (measure._ROW_SUM_MIN - 1) // max(width_value, width_grad)
    above = -(-measure._ROW_SUM_MIN // max(min(width_value, width_grad), 1))
    rng = np.random.default_rng(seed)
    for n in sorted({1, 2, max(below, 1), above}):
        pts = np.column_stack([rng.uniform(-1.2, 1.2, n), rng.uniform(-1.2, 1.2, n),
                               10.0 ** rng.uniform(-3.0, math.log10(4.0), n)])
        got = measure_many(domain, pts, gradient=True)
        with mock.patch.object(measure, "_row_sums", _fsum_each_row):
            want = measure_many(domain, pts, gradient=True)
        assert _record_bytes(got) == _record_bytes(want), n
        values_only = measure_many(domain, pts)
        assert values_only.gradients is None and values_only.gradient_errors is None
        assert _record_bytes(values_only)[:3] == _record_bytes(got)[:3], n

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st
from scipy.optimize import minimize

from tunnelvision.hyperbolic import (INFINITY, DiskPoint, H3Point, MobiusMap,
                                     disk_distance, disk_to_h3, h3_distance,
                                     h3_distance_batch, laplace_beltrami,
                                     renormalize_batch)

finite = st.floats(-5.0, 5.0, allow_nan=False)
heights = st.floats(0.05, 20.0, allow_nan=False)


def h3_points(draw):
    return H3Point(draw(finite), draw(finite), draw(heights))


@st.composite
def h3_point_st(draw):
    return H3Point(draw(finite), draw(finite), draw(heights))


@st.composite
def mobius_st(draw):
    # product of elementary maps: always invertible, covers a rich family
    c = st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                           allow_infinity=False)
    upper = draw(c)
    lower = draw(c)
    lam = draw(st.floats(0.2, 5.0))
    return (MobiusMap(1.0, upper, 0.0, 1.0) @ MobiusMap.dilation(lam)
            @ MobiusMap(1.0, 0.0, lower, 1.0))


def test_point_validation():
    with pytest.raises(ValueError):
        H3Point(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        H3Point(0.0, math.inf, 1.0)
    with pytest.raises(ValueError):
        DiskPoint(1.0 + 0j)


def test_distance_identity_and_vertical():
    p = H3Point(0, 0, 1)
    assert h3_distance(p, p) == 0.0
    assert h3_distance(p, H3Point(0, 0, math.e)) == pytest.approx(1.0, abs=1e-14)


def test_distance_batch_matches_scalar():
    rng = np.random.default_rng(7)
    q = H3Point(0.1, -0.2, 0.8)
    far = np.column_stack([rng.uniform(-3, 3, 400), rng.uniform(-3, 3, 400),
                           rng.uniform(0.05, 5.0, 400)])
    offsets = rng.normal(size=(100, 3)) * np.logspace(-14, -2, 100)[:, None]
    pts = np.vstack([far, q.as_array() + offsets])
    batch = h3_distance_batch(pts, q)
    scalar = np.array([h3_distance(H3Point(*row), q) for row in pts.tolist()])
    assert np.all(np.abs(batch - scalar) <= 4 * np.spacing(scalar))
    # no cancellation: a point 1e-10 away keeps its distance
    close = h3_distance_batch(np.array([[0.0, 1e-10, 1.0]]), H3Point(0, 0, 1))
    assert close[0] == pytest.approx(1e-10, rel=0.01)


def test_distance_matches_path_length_minimization():
    # independent oracle: minimize the discretized hyperbolic length of a
    # polygonal path from (0,0,1) to (1,0,1) over its interior heights,
    # using only the length functional sum(|chord| / z_mid)
    n = 64
    xs = np.linspace(0.0, 1.0, n + 1)

    def path_length(zs_inner):
        zs = np.concatenate([[1.0], zs_inner, [1.0]])
        chord = np.hypot(np.diff(xs), np.diff(zs))
        z_mid = 0.5 * (zs[:-1] + zs[1:])
        return float(np.sum(chord / z_mid))

    z0 = np.ones(n - 1)
    res = minimize(path_length, z0, method="L-BFGS-B",
                   bounds=[(0.5, 2.0)] * (n - 1),
                   options={"maxiter": 500, "ftol": 1e-14})
    oracle = res.fun
    direct = h3_distance(H3Point(0, 0, 1), H3Point(1, 0, 1))
    # frozen value of the oracle run; the discretization is good to ~1e-5
    assert direct == pytest.approx(0.9624236501192069, abs=1e-12)
    assert oracle == pytest.approx(direct, abs=2e-4)
    assert oracle >= direct - 1e-9  # a polygonal path is never shorter


@given(h3_point_st(), h3_point_st(), h3_point_st())
# r 1e-10 from p: acosh(1 + tiny) rounds that distance to 0
@example(H3Point(0.0, 0.0, 1.0), H3Point(0.0, 1.0, 1.0), H3Point(0.0, 1e-10, 1.0))
def test_distance_is_a_metric(p, q, r):
    dpq = h3_distance(p, q)
    assert dpq == pytest.approx(h3_distance(q, p), abs=1e-12)
    assert dpq >= 0.0
    assert h3_distance(p, p) == 0.0
    assert dpq <= h3_distance(p, r) + h3_distance(r, q) + 1e-12


def test_disk_distance_cases():
    assert disk_distance(DiskPoint(0j), DiskPoint(0j)) == 0.0
    assert disk_distance(DiskPoint(0j), DiskPoint(0.5 + 0j)) == pytest.approx(
        math.log(3.0), abs=1e-14)


def test_disk_halfspace_model_transport():
    u, v = DiskPoint(0.3 + 0j), DiskPoint(-0.3j)
    assert disk_distance(u, v) == pytest.approx(
        h3_distance(disk_to_h3(u), disk_to_h3(v)), abs=1e-10)
    assert disk_to_h3(DiskPoint(0j)) == H3Point(0.0, 0.0, 1.0)


@given(st.complex_numbers(max_magnitude=0.9, allow_nan=False,
                          allow_infinity=False),
       st.complex_numbers(max_magnitude=0.9, allow_nan=False,
                          allow_infinity=False))
def test_transport_preserves_distance(zu, zv):
    # the acosh distance formula floors out near coincident points; the
    # model-agreement claim is about separated pairs
    assume(abs(zu - zv) > 1e-6)
    u, v = DiskPoint(zu), DiskPoint(zv)
    assert disk_distance(u, v) == pytest.approx(
        h3_distance(disk_to_h3(u), disk_to_h3(v)), abs=1e-10, rel=1e-10)


def test_mobius_boundary_action():
    m = MobiusMap.identity()
    assert m.apply_boundary(5 + 2j) == 5 + 2j
    lam = 3.7
    d = MobiusMap.dilation(lam)
    assert d.apply_boundary(2 - 1j) == pytest.approx(lam * (2 - 1j), abs=1e-14)
    assert d.apply_boundary(INFINITY) == INFINITY
    m2 = MobiusMap(1, 2, 3, 4)
    assert m2.apply_boundary(INFINITY) == pytest.approx(1 / 3, abs=1e-14)
    # pole maps to infinity
    assert math.isinf(abs(m2.apply_boundary(-4 / 3)))


def test_mobius_normalization():
    m = MobiusMap(2.0, 0.0, 0.0, 2.0)
    assert abs(m.a * m.d - m.b * m.c - 1.0) < 1e-12
    with pytest.raises(ValueError):
        MobiusMap(1.0, 1.0, 1.0, 1.0)


def test_renormalize_batch_matches_mobius_rule():
    # unit-determinant rows with |b||c| from 0.01 to 3000, so the rule's
    # threshold max(1e-12, 16 eps (|a||d| + |b||c|)) is in both regimes;
    # each row is scaled to |det - 1| ~ delta * threshold, delta in [0, 3)
    rng = np.random.default_rng(24)
    n = 4000

    def phase():
        return np.exp(2j * np.pi * rng.random(n))

    a = 10.0 ** rng.uniform(-1, 1, n) * phase()
    b = 10.0 ** rng.uniform(-2, 3.5, n) * phase()
    c = 10.0 ** rng.uniform(-2, 3.5, n) / np.abs(b) * phase()
    d = (1.0 + b * c) / a
    size = np.abs(a) * np.abs(d) + np.abs(b) * np.abs(c)
    threshold = np.maximum(1e-12, 16 * np.finfo(float).eps * size)
    assert (size < 280).any() and (size > 280).any()
    scale = np.sqrt(1.0 + rng.uniform(0, 3, n) * threshold * phase())
    rows = np.stack([a, b, c, d], axis=1) * scale[:, None]
    mats = rows.reshape(-1, 2, 2).copy()
    renormalize_batch(mats)
    expected = np.array([MobiusMap(*row).matrix() for row in rows.tolist()])
    assert np.array_equal(mats.view(np.uint64), expected.view(np.uint64))
    changed = (mats.reshape(-1, 4) != rows).any(axis=1)
    assert changed.any() and not changed.all()
    again = mats.copy()
    renormalize_batch(again)
    assert np.array_equal(again.view(np.uint64), mats.view(np.uint64))
    with pytest.raises(ValueError):
        renormalize_batch(np.array([[[1, 2], [2, 4]]], dtype=complex))
    with pytest.raises(TypeError):
        renormalize_batch(np.eye(2)[None])


def test_mobius_h3_basic():
    p = H3Point(0.3, -0.4, 2.0)
    assert MobiusMap.identity().apply_h3(p) == p
    lam = 4.0
    img = MobiusMap.dilation(lam).apply_h3(H3Point(0, 0, 1))
    assert (img.x, img.y, img.z) == pytest.approx((0, 0, lam), abs=1e-14)


@given(mobius_st(), h3_point_st(), h3_point_st())
def test_mobius_h3_is_isometry(m, p, q):
    assert h3_distance(m.apply_h3(p), m.apply_h3(q)) == pytest.approx(
        h3_distance(p, q), abs=1e-12, rel=1e-12)


@given(mobius_st(), mobius_st(), h3_point_st())
def test_mobius_composition_consistent(m, n, p):
    composed = (m @ n).apply_h3(p)
    applied = m.apply_h3(n.apply_h3(p))
    assert composed.x == pytest.approx(applied.x, abs=1e-10)
    assert composed.y == pytest.approx(applied.y, abs=1e-10)
    assert composed.z == pytest.approx(applied.z, abs=1e-10, rel=1e-10)


def test_mobius_h3_boundary_limit():
    # the interior action approaches the boundary action as z -> 0
    m = MobiusMap(2.0, 1j, -0.5, 1.0)
    w = 0.7 - 0.2j
    img = m.apply_h3(H3Point(w.real, w.imag, 1e-9))
    assert complex(img.x, img.y) == pytest.approx(m.apply_boundary(w), abs=1e-8)


def test_laplace_beltrami_constant_is_zero():
    val = laplace_beltrami(lambda p: 4.25, H3Point(0.3, 0.2, 1.5), 0.05)
    assert val == pytest.approx(0.0, abs=1e-12)


def _halfplane_prototype(p):
    return 0.5 * (p.y / math.hypot(p.y, p.z) + 1.0)


def _green_kernel_field(p):
    d = h3_distance(p, H3Point(0, 0, 1))
    return 1.0 / math.expm1(2.0 * d)


@pytest.mark.parametrize("field,point", [
    (_halfplane_prototype, H3Point(0.0, 1.0, 1.0)),
    (_green_kernel_field, H3Point(1.0, 1.0, 2.0)),
])
def test_laplace_beltrami_on_harmonic_fields(field, point):
    # both fields are harmonic: residual is O(step^2) and Richardson-clean
    r1 = laplace_beltrami(field, point, 0.02)
    r2 = laplace_beltrami(field, point, 0.01)
    assert abs(r1) < 1e-3
    order = math.log2(abs(r1) / abs(r2))
    assert order >= 1.8


def test_laplace_beltrami_step_precondition():
    with pytest.raises(ValueError):
        laplace_beltrami(lambda p: 0.0, H3Point(0, 0, 0.1), 0.06)

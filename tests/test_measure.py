import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from tunnelvision.domains import Difference, Disk, HalfPlane, Union, dogbone
from tunnelvision.hyperbolic import H3Point, laplace_beltrami
from tunnelvision.measure import (MeasureValue, QuadratureConfig,
                                  disk_closed_form, halfplane_closed_form,
                                  harmonic_measure, measure_many,
                                  measure_with_gradient, poisson_kernel)

CFG = QuadratureConfig(tolerance=1e-9)


def test_kernel_point_values():
    assert poisson_kernel(H3Point(0, 0, 1), 0j) == pytest.approx(1 / math.pi,
                                                                 abs=1e-15)
    # decay far out: (1/pi) (1/101)^2
    assert poisson_kernel(H3Point(0, 0, 1), 10 + 0j) == pytest.approx(
        (1 / math.pi) / 101**2, rel=1e-12)


def test_kernel_dilation_scaling():
    lam = 7.3
    for zeta in (0.5 + 0.25j, -2 + 1j, 10j):
        lhs = poisson_kernel(H3Point(0, 0, lam), zeta)
        rhs = lam**-2 * poisson_kernel(H3Point(0, 0, 1), zeta / lam)
        assert lhs == pytest.approx(rhs, rel=1e-14)


def test_kernel_bound(rng):
    z = rng.uniform(-50, 50, 10_000) + 1j * rng.uniform(-50, 50, 10_000)
    assert np.all(poisson_kernel(H3Point(0, 0, 1), z) <= 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(tolerance=0.0)


def test_whole_plane_as_huge_disk():
    mv = harmonic_measure(Disk(0, 1e6), H3Point(0, 0, 1), CFG)
    assert mv.value == pytest.approx(1.0, abs=1e-9)


def test_halfplane_matches_closed_form():
    hp = HalfPlane(1j, 0.0)  # {eta > 0}
    for (x, y, z) in [(0, 1, 1), (0.5, -2, 0.5), (3, 0.3, 2), (0, 0, 5)]:
        p = H3Point(x, y, z)
        mv = harmonic_measure(hp, p, CFG)
        assert mv.value == pytest.approx(halfplane_closed_form(p), abs=3e-9)
        assert mv.error < 1e-8


def test_halfplane_closed_form_values():
    assert halfplane_closed_form(H3Point(7.0, 0.0, 2.0)) == 0.5
    assert halfplane_closed_form(H3Point(0, 1, 1)) == pytest.approx(
        0.5 * (1 / math.sqrt(2) + 1), abs=1e-15)
    # leading order (z/2y)^2 below the outside half
    assert halfplane_closed_form(H3Point(0, -1, 0.001)) == pytest.approx(
        (0.001 / 2) ** 2, rel=2e-3)


def test_disk_closed_form_against_radial_quadrature():
    # independent oracle: the radial integral of the kernel over a centered
    # disk, 2 z^2 int_0^rho r (r^2+z^2)^-2 dr, done numerically
    for rho, z in [(1.0, 1.0), (0.25, 0.3), (2.0, 5.0), (3.0, 0.1)]:
        oracle = 2 * z * z * quad(lambda r: r / (r * r + z * z) ** 2,
                                  0.0, rho, epsabs=1e-14)[0]
        assert disk_closed_form(rho, z) == pytest.approx(oracle, abs=1e-12)
        assert disk_closed_form(rho, z) == pytest.approx(
            rho**2 / (rho**2 + z**2), abs=1e-15)


def test_disk_closed_form_limits():
    assert disk_closed_form(1.0, 1.0) == 0.5
    assert disk_closed_form(2.0, 1e-8) == pytest.approx(1.0, abs=1e-15)
    assert disk_closed_form(2.0, 1e8) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        disk_closed_form(-1.0, 1.0)


def test_measure_matches_disk_closed_form():
    for rho, z in [(1.0, 1.0), (0.25, 0.3), (2.0, 5.0)]:
        mv = harmonic_measure(Disk(0, rho), H3Point(0, 0, z), CFG)
        assert mv.value == pytest.approx(disk_closed_form(rho, z), abs=3e-9)


def test_measure_value_invariants(dogbone01):
    p = H3Point(0.2, 0.1, 0.8)
    mv = harmonic_measure(dogbone01, p, CFG)
    assert 0.0 <= mv.value <= 1.0 + mv.error
    assert mv.converged
    assert isinstance(mv, MeasureValue)
    # the region and its complement (the plane off the real axis, a null
    # set, minus the region) share the kernel's unit mass
    plane = Union(HalfPlane(1j, 0.0), HalfPlane(-1j, 0.0))
    rest = harmonic_measure(Difference(plane, dogbone01), p, CFG)
    assert abs(mv.value + rest.value - 1.0) <= mv.error + rest.error


def test_nonconvergence_is_flagged(dogbone01):
    # rounding alone exceeds tol 1e-18
    cramped = QuadratureConfig(tolerance=1e-18)
    mv = harmonic_measure(dogbone01, H3Point(0.3, 0.2, 0.7), cramped)
    assert not mv.converged
    # best estimate still sane
    assert mv.value == pytest.approx(
        harmonic_measure(dogbone01, H3Point(0.3, 0.2, 0.7), CFG).value,
        abs=1e-6)


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflowing_lengths_are_not_converged(dogbone01):
    # past ~1e77 the arc terms' sqrt(P1 P2) overflows and the value reads 1/2
    # with a rounding-sized error; such rows get an infinite one instead.
    # A domain that large is rejected when it is built.
    with pytest.raises(ValueError, match="disk center"):
        Disk(0, 1e100)
    for domain, p in [(Disk(0, 1.0), H3Point(0, 0, 1e80)),  # true value 1e-160
                      (Disk(0, 1.0), H3Point(1e80, 0, 1))]:
        mv, _, grad_err = measure_with_gradient(domain, p, CFG)
        assert mv.error == math.inf and not mv.converged
        assert np.all(grad_err == math.inf)
    # a finite row batched with an overflowing one keeps its bits
    p = H3Point(0.3, 0.2, 0.7)
    batch = measure_many(dogbone01, [p, H3Point(0, 0, 1e80)], CFG, gradient=True)
    alone = measure_many(dogbone01, [p], CFG, gradient=True)
    assert batch.values[0] == alone.values[0] and batch.errors[0] == alone.errors[0]
    assert np.array_equal(batch.gradient_errors[0], alone.gradient_errors[0])
    assert list(batch.converged) == [True, False]


def test_batched_matches_one_point_calls():
    # one batched call and one call per point give identical bits, for a
    # batch on one vertical line and a batch on distinct lines, converged or not
    domains = [dogbone(0.1), Union(HalfPlane(1j, 0.0), Disk(0.5, 0.3))]
    pts = [H3Point(0, 0, 1), H3Point(0, 0, 0.2), H3Point(0.3, 0.2, 0.7),
           H3Point(-1.0, 0.1, 0.05), H3Point(0.3, 0.2, 2.5),
           H3Point(2.0, -1.0, 3.0)]
    cramped = QuadratureConfig(tolerance=1e-18)
    flags = set()
    for domain, cfg, batch in itertools.product(
            domains, (QuadratureConfig(), cramped), (pts[:2], pts)):
        record = measure_many(domain, batch, cfg, gradient=True)
        assert list(measure_many(domain, batch, cfg)) == [
            harmonic_measure(domain, p, cfg) for p in batch]
        for p, mv, g, e in zip(batch, record, record.gradients, record.gradient_errors):
            mv1, g1, e1 = measure_with_gradient(domain, p, cfg)
            assert mv == mv1
            assert np.array_equal(g, g1) and np.array_equal(e, e1)
            flags.add(mv.converged)
    assert flags == {True, False}
    assert list(measure_many(domains[0], [], CFG)) == []


_RECORD_FIELDS = ("values", "errors", "converged", "gradients", "gradient_errors")


def test_array_and_point_list_give_identical_records(dogbone01):
    xyz = np.array([[0.0, 0.0, 1.0], [0.3, -0.2, 0.05], [-0.0, 0.0, 0.2],
                    [-1.0, 0.1, 0.05], [2.0, -1.0, 3.0]])
    pts = [H3Point(*row) for row in xyz.tolist()]
    for gradient in (False, True):
        from_array = measure_many(dogbone01, xyz, CFG, gradient=gradient)
        from_points = measure_many(dogbone01, pts, CFG, gradient=gradient)
        for name in _RECORD_FIELDS:
            a, b = getattr(from_array, name), getattr(from_points, name)
            if a is None:
                assert b is None and name.startswith("gradient") and not gradient
                continue
            assert a.tobytes() == b.tobytes(), name
            assert not a.flags.writeable


def test_record_rejects_points_off_the_half_space(dogbone01):
    for bad in ([[0.1, 0.2, 0.0]], [[0.1, 0.2, -1.0]], [[np.nan, 0.0, 1.0]],
                [[0.0, np.inf, 1.0]]):
        with pytest.raises(ValueError):
            measure_many(dogbone01, np.array(bad))


_xyz = st.tuples(st.floats(-1.5, 1.5), st.floats(-1.5, 1.5),
                 st.floats(-3.0, 1.0).map(lambda e: 10.0**e))


@given(st.lists(_xyz, max_size=6), st.sampled_from([1e-7, 1e-18]),
       st.booleans())
def test_record_rows_match_one_point_calls(dogbone01, rows, tolerance, as_array):
    # tolerance 1e-18 makes every row non-converged; an empty batch is allowed
    cfg = QuadratureConfig(tolerance=tolerance)
    pts = [H3Point(*row) for row in rows]
    record = measure_many(dogbone01, np.array(rows).reshape(-1, 3) if as_array else pts,
                          cfg, gradient=True)
    assert len(record) == len(pts)
    assert record.gradients.shape == record.gradient_errors.shape == (len(pts), 3)
    for i, p in enumerate(pts):
        mv, g, e = measure_with_gradient(dogbone01, p, cfg)
        assert record[i] == mv == harmonic_measure(dogbone01, p, cfg)
        assert record[i - len(pts)] == mv
        assert record.gradients[i].tobytes() == g.tobytes()
        assert record.gradient_errors[i].tobytes() == e.tobytes()
        assert mv.converged == (mv.error <= tolerance)
    assert list(record) == [record[i] for i in range(len(pts))]
    for i in (len(pts), -len(pts) - 1):
        with pytest.raises(IndexError):
            record[i]


def test_monotonicity_nested(rng):
    for _ in range(5):
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        r = rng.uniform(0.2, 1.0)
        p = H3Point(rng.uniform(-1, 1), rng.uniform(-1, 1),
                    rng.uniform(0.2, 2.0))
        small = harmonic_measure(Disk(c, r), p, CFG)
        big = harmonic_measure(Disk(c, r + 0.5), p, CFG)
        assert small.value <= big.value + 2 * CFG.tolerance


def test_additivity_disjoint():
    a, b = Disk(3.0, 1.0), Disk(-3.0, 1.0)
    p = H3Point(0.5, -0.2, 1.3)
    lhs = harmonic_measure(Union(a, b), p, CFG)
    rhs = (harmonic_measure(a, p, CFG).value
           + harmonic_measure(b, p, CFG).value)
    assert lhs.value == pytest.approx(rhs, abs=4e-9)


def test_dilation_equivariance(dogbone01):
    for lam in (0.1, 1.0, 10.0):
        scaled = dogbone01.scaled(lam)
        for z in (0.3, 1.0, 2.5):
            base = harmonic_measure(dogbone01, H3Point(0, 0, z), CFG).value
            moved = harmonic_measure(scaled, H3Point(0, 0, lam * z), CFG).value
            assert moved == pytest.approx(base, rel=1e-6)


def test_harmonicity_order(dogbone01):
    tight = QuadratureConfig(tolerance=1e-11)

    def f(p):
        return harmonic_measure(dogbone01, p, tight).value

    for p in (H3Point(0.3, 0.1, 0.7), H3Point(-1.0, 0.0, 0.6)):
        r1 = laplace_beltrami(f, p, 0.02)
        r2 = laplace_beltrami(f, p, 0.01)
        assert math.log2(abs(r1) / abs(r2)) >= 1.8


def _halfplane_gradient(p):
    # hand-differentiated closed form of the half-plane measure
    s = math.hypot(p.y, p.z)
    return np.array([0.0, p.z**2 / (2 * s**3), -p.y * p.z / (2 * s**3)])


def test_gradient_halfplane_analytic():
    hp = HalfPlane(1j, 0.0)
    for (x, y, z) in [(0, 1, 1), (2, -0.5, 0.8)]:
        p = H3Point(x, y, z)
        g = measure_with_gradient(hp, p, CFG)[1]
        assert np.allclose(g, _halfplane_gradient(p), atol=1e-8)


def test_gradient_disk_axis():
    rho, z = 1.0, 0.7
    g = measure_with_gradient(Disk(0, rho), H3Point(0, 0, z), CFG)[1]
    expected = np.array([0.0, 0.0, -2 * rho**2 * z / (rho**2 + z**2) ** 2])
    assert np.allclose(g, expected, atol=1e-9)


def test_gradient_symmetric_axis_components(dogbone01):
    for z in (0.2, 0.95, 3.0):
        g = measure_with_gradient(dogbone01, H3Point(0, 0, z), CFG)[1]
        assert abs(g[0]) < 10 * CFG.tolerance
        assert abs(g[1]) < 10 * CFG.tolerance


def test_gradient_matches_finite_differences(dogbone01):
    p = H3Point(0.4, -0.3, 0.9)
    mv, g, gerr = measure_with_gradient(dogbone01, p, CFG)
    h = 1e-4
    for i, (dx, dy, dz) in enumerate([(h, 0, 0), (0, h, 0), (0, 0, h)]):
        fp = harmonic_measure(dogbone01,
                              H3Point(p.x + dx, p.y + dy, p.z + dz), CFG).value
        fm = harmonic_measure(dogbone01,
                              H3Point(p.x - dx, p.y - dy, p.z - dz), CFG).value
        fd = (fp - fm) / (2 * h)
        # third derivatives of the measure are O(10) here, so the central
        # difference itself carries ~20 h^2 truncation
        assert g[i] == pytest.approx(fd, abs=max(10 * CFG.tolerance, 20 * h**2))
    assert mv.value == pytest.approx(
        harmonic_measure(dogbone01, p, CFG).value, abs=2 * CFG.tolerance)


def test_polygon_measure_against_dblquad_oracle():
    # independent 2D oracle: direct double integral of the kernel over a
    # square, and the same square assembled from two triangles sharing a
    # diagonal (a regression for edge-parameter handling in ray crossings)
    from scipy.integrate import dblquad
    from tunnelvision.domains import SimplePolygon

    square = SimplePolygon((0.5 + 0.5j, -0.5 + 0.5j, -0.5 - 0.5j, 0.5 - 0.5j))
    tri_union = Union(
        SimplePolygon((0.5 + 0.5j, -0.5 + 0.5j, -0.5 - 0.5j)),
        SimplePolygon((0.5 + 0.5j, -0.5 - 0.5j, 0.5 - 0.5j)))
    for p in (H3Point(0.2, -0.1, 0.7), H3Point(0, 0, 0.5),
              H3Point(2.0, 0.0, 1.0)):
        direct = harmonic_measure(square, p, CFG)
        glued = harmonic_measure(tri_union, p, CFG)
        oracle = dblquad(lambda eta, xi: poisson_kernel(p, complex(xi, eta)),
                         -0.5, 0.5, -0.5, 0.5, epsabs=1e-12)[0]
        assert direct.converged and glued.converged
        assert direct.value == pytest.approx(oracle, abs=3e-9)
        assert glued.value == pytest.approx(oracle, abs=3e-9)


def test_difference_measure_annulus():
    # annulus = big disk minus small disk; on the axis both rings have
    # closed forms, and subtraction is exact for nested regions
    from tunnelvision.domains import Difference
    annulus = Difference(Disk(0, 2.0), Disk(0, 0.5))
    for z in (0.3, 1.0, 4.0):
        got = harmonic_measure(annulus, H3Point(0, 0, z), CFG)
        expected = disk_closed_form(2.0, z) - disk_closed_form(0.5, z)
        assert got.converged
        assert got.value == pytest.approx(expected, abs=3e-9)

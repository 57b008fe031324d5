import math

import numpy as np
import pytest

from tunnelvision.critical import GridSpec
from tunnelvision.domains import Disk, HalfPlane
from tunnelvision.forms import (FormSample, FramePoint, form_norm_grid,
                                _hodge_star_matrix, boundary_expansion_check,
                                sd_form_norm, selfdual_algebra_check,
                                zero_locus_report)
from tunnelvision.hyperbolic import H3Point
from tunnelvision.measure import QuadratureConfig

CFG = QuadratureConfig(tolerance=1e-9)
SQRT2 = math.sqrt(2.0)


def test_form_sample_identity_exact():
    s = FormSample.from_psi_norm(H3Point(0, 0, 1), 0.37)
    assert s.omega_norm_g0 == SQRT2 * s.psi_norm_h


def test_frame_point_validation():
    FramePoint(H3Point(0, 0, 1), V=1.5, df=(0.1, 0, 0), u=0.5)
    with pytest.raises(ValueError):
        FramePoint(H3Point(0, 0, 1), V=0.0, df=(0, 0, 0), u=0.5)
    with pytest.raises(ValueError):
        FramePoint(H3Point(0, 0, 1), V=1.0, df=(0, 0, 0), u=-1.0)


def test_sd_norm_halfplane_prototype():
    p = H3Point(0, 1, 1)
    # hand gradient of the half-plane measure at (0, 1, 1)
    s = math.hypot(p.y, p.z)
    grad = np.array([0.0, p.z**2 / (2 * s**3), -p.y * p.z / (2 * s**3)])
    expected_psi = p.z * float(np.linalg.norm(grad))
    sample = sd_form_norm(HalfPlane(1j, 0.0), p, CFG)
    assert sample.psi_norm_h == pytest.approx(expected_psi, abs=1e-8)
    assert sample.omega_norm_g0 == pytest.approx(SQRT2 * expected_psi,
                                                 abs=1e-8)


def test_sd_norm_vanishes_at_critical_point(dogbone01, quad_cfg):
    from tunnelvision.critical import dogbone_experiment
    report, _ = dogbone_experiment(0.1, quad_cfg, n_samples=120)
    cp = report.critical_points[0]
    sample = sd_form_norm(dogbone01, cp.location, quad_cfg)
    assert sample.omega_norm_g0 < 1e-6


def test_selfdual_model_form():
    # the basic self-dual combination: psi = e1, any V
    assert selfdual_algebra_check([1.0, 0.0, 0.0], 1.0) == 0.0
    assert selfdual_algebra_check([1.0, 0.0, 0.0], 3.7) < 1e-14


def test_selfdual_zero_form():
    assert selfdual_algebra_check([0.0, 0.0, 0.0], 2.0) == 0.0


def test_selfdual_random(rng):
    worst = 0.0
    for _ in range(1000):
        psi = rng.normal(size=3)
        v = rng.uniform(0.1, 10.0)
        worst = max(worst, selfdual_algebra_check(psi, v))
    assert worst < 1e-12


def test_selfdual_validation():
    with pytest.raises(ValueError):
        selfdual_algebra_check([1.0, 0.0, 0.0], -1.0)
    with pytest.raises(ValueError):
        selfdual_algebra_check([1.0, 0.0], 1.0)


def test_hodge_star_oracle(rng):
    # exhaustive linear-algebra check on basis 2-forms: the star of a
    # Riemannian 4-metric is an involution of signature (3, 3) on 2-forms
    # and is self-adjoint for the metric's inner product on components
    from tunnelvision.forms import _PAIRS
    for _ in range(25):
        v = rng.uniform(0.2, 5.0)
        metric = (v, v, v, 1.0 / v)
        star = _hodge_star_matrix(metric)
        assert np.allclose(star @ star, np.eye(6), atol=1e-12)
        eigvals = np.sort(np.real(np.linalg.eigvals(star)))
        assert np.allclose(eigvals, [-1, -1, -1, 1, 1, 1], atol=1e-12)
        gram = np.diag([1.0 / (metric[i] * metric[j]) for i, j in _PAIRS])
        assert np.allclose(gram @ star, (gram @ star).T, atol=1e-12)


def test_boundary_expansion_halfplane():
    hp = HalfPlane(1j, 0.0)
    zs = [1e-2, 5e-3, 2.5e-3]
    outside = boundary_expansion_check(hp, -1j, "outside", zs)
    assert outside.coefficient == pytest.approx(0.25, rel=0.01)
    assert outside.exponent == pytest.approx(2.0, abs=0.1)
    assert not outside.flagged
    inside = boundary_expansion_check(hp, 1j, "inside", zs)
    assert inside.coefficient == pytest.approx(0.25, rel=0.01)
    assert inside.exponent == pytest.approx(2.0, abs=0.1)


def test_boundary_expansion_disk():
    fit = boundary_expansion_check(Disk(0, 1.0), 0j, "inside",
                                   [1e-2, 5e-3, 2.5e-3])
    # 1 - f = z^2/(1+z^2): coefficient 1, exponent 2
    assert fit.coefficient == pytest.approx(1.0, rel=0.01)
    assert fit.exponent == pytest.approx(2.0, abs=0.1)


def test_boundary_expansion_exponent_window():
    # feet at distance >= 0.1 from the region edge stay in [1.9, 2.1]
    for foot in (0.5j, 2j, -0.3 - 0.5j):
        side = "inside" if foot.imag > 0 else "outside"
        fit = boundary_expansion_check(HalfPlane(1j, 0.0), foot, side,
                                       [4e-3, 2e-3, 1e-3])
        assert 1.9 <= fit.exponent <= 2.1


def test_boundary_expansion_flags_bad_regime():
    # foot too close to the edge for these heights: quadratic regime not
    # reached, fit exponent far from 2
    fit = boundary_expansion_check(HalfPlane(1j, 0.0), -0.003j, "outside",
                                   [4e-2, 2e-2, 1e-2])
    assert fit.flagged


def test_boundary_expansion_validation(dogbone01):
    hp = HalfPlane(1j, 0.0)
    with pytest.raises(ValueError):
        boundary_expansion_check(hp, -1j, "inside", [1e-2, 5e-3])
    with pytest.raises(ValueError):
        boundary_expansion_check(hp, 1j, "sideways", [1e-2, 5e-3])
    with pytest.raises(ValueError):
        boundary_expansion_check(hp, 1j, "inside", [1e-2])


def test_zero_locus_empty_for_disk():
    grid = GridSpec(x=(-0.4, 0.4, 5), y=(-0.4, 0.4, 5), z=(0.05, 3.0, 8))
    report = zero_locus_report(Disk(0, 1.0), grid, QuadratureConfig())
    assert report.samples == ()
    assert report.clusters == ()
    assert report.cross_referenced


def test_zero_locus_finds_dogbone_pair(dogbone01):
    grid = GridSpec(x=(-0.4, 0.4, 7), y=(-0.4, 0.4, 7), z=(0.05, 3.0, 12))
    report = zero_locus_report(dogbone01, grid, QuadratureConfig(),
                               threshold=0.15, u_mode="sqrt_f")
    assert len(report.clusters) == 2
    assert len(report.critical_points) == 2
    assert report.cross_referenced
    zs = sorted(cp.location.z for cp in report.critical_points)
    assert zs[0] == pytest.approx(0.1585, abs=0.01)
    assert zs[1] == pytest.approx(0.9496, abs=0.01)


def test_zero_locus_near_boundary_excluded_by_weighting(dogbone01):
    # deep inside the corridor (heights well below the corridor half-height)
    # the raw form norm vanishes quadratically with z, but the u-weighted
    # norm blows up there, so no near-boundary samples are reported
    grid = GridSpec(x=(-0.05, 0.05, 3), y=(0.0, 0.0, 1), z=(2e-5, 1e-4, 4))
    report = zero_locus_report(dogbone01, grid, QuadratureConfig(),
                               threshold=0.05, u_mode="height")
    assert report.samples == ()
    # the raw (unweighted) norms at those grid points are all sub-threshold:
    # without the weighting they would be reported as spurious zeros
    from tunnelvision.measure import measure_with_gradient
    xs, ys, zs = grid.axes()
    raw = []
    for x in xs:
        for y in ys:
            for z in zs:
                p = H3Point(float(x), float(y), float(z))
                _, g, _ = measure_with_gradient(dogbone01, p,
                                                QuadratureConfig())
                raw.append(SQRT2 * p.z * float(np.linalg.norm(g)))
    assert max(raw) < 0.05


def test_form_norm_grid_rows(dogbone01):
    grid = GridSpec(x=(-0.2, 0.2, 3), y=(-0.2, 0.2, 3), z=(0.1, 2.0, 4))
    rows = form_norm_grid(dogbone01, grid, QuadratureConfig(),
                          u_mode="sqrt_f")
    assert len(rows) == 3 * 3 * 4
    for x, y, z, omega, weighted in rows:
        assert omega >= 0.0
        assert weighted >= omega  # f(1-f) < 1 always

import math
from collections import deque

import numpy as np
import pytest

from tunnelvision.critical import GridSpec, _clusters
from tunnelvision.domains import Disk, HalfPlane
from tunnelvision.forms import (FormSample, form_norm_grid,
                                _hodge_star_matrix, boundary_expansion_check,
                                sd_form_norm, selfdual_algebra_check,
                                zero_locus_report)
from tunnelvision.hyperbolic import H3Point
from tunnelvision.measure import QuadratureConfig, measure_with_gradient

CFG = QuadratureConfig(tolerance=1e-9)
SQRT2 = math.sqrt(2.0)


def test_form_sample_identity_exact():
    s = FormSample.from_psi_norm(H3Point(0, 0, 1), 0.37)
    assert s.omega_norm_g0 == SQRT2 * s.psi_norm_h


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


def test_boundary_expansion_rejects_nonconverged_values():
    # far from the origin the rounding bound of the foot (about 8u |w| times
    # the kernel mass along the edge) exceeds the default tolerance
    with pytest.raises(ValueError, match="did not converge"):
        boundary_expansion_check(HalfPlane(1j, 0.0), complex(1e14, -1.0),
                                 "outside", [1e-2, 5e-3])


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
    assert report.nonconverged_evaluations == 0


def test_zero_locus_counts_nonconverged_scan():
    # no grid evaluation can certify tol 1e-18: the report counts them and
    # does not claim the (empty) scan is cross-referenced
    d = Disk(0, 1.0)
    grid = GridSpec.for_domain(d, 3)
    report = zero_locus_report(d, grid, QuadratureConfig(tolerance=1e-18))
    assert not report.cross_referenced
    assert report.nonconverged_evaluations == 27
    assert report.to_obj()["nonconverged_evaluations"] == 27


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
    grid = GridSpec(x=(-0.05, 0.05, 3), y=(-1e-4, 1e-4, 2), z=(2e-5, 1e-4, 4))
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
    table, record = form_norm_grid(dogbone01, grid, QuadratureConfig(),
                                   u_mode="sqrt_f")
    assert record.converged.all()
    assert table.shape == (3 * 3 * 4, 5)
    for x, y, z, omega, weighted in table.tolist():
        assert omega >= 0.0
        assert weighted >= omega  # f(1-f) < 1 always


@pytest.mark.parametrize("u_mode, n", [("height", 4), ("sqrt_f", 10)])
def test_form_norm_grid_matches_a_per_point_loop(dogbone01, u_mode, n):
    # the rows as computed one point at a time, bit for bit; on these grids
    # u * u differs from Python's u**2 in the last bit on 16 and 2 rows
    grid = GridSpec.for_domain(dogbone01, n)
    table, record = form_norm_grid(dogbone01, grid, QuadratureConfig(), u_mode)
    xs, ys, zs = grid.axes()
    rows = []
    for x in xs:
        for y in ys:
            for z in zs:
                p = H3Point(float(x), float(y), float(z))
                mv, g, _ = measure_with_gradient(dogbone01, p, QuadratureConfig())
                omega = SQRT2 * (p.z * float(np.linalg.norm(g)))
                u = (p.z if u_mode == "height"
                     else math.sqrt(max(mv.value * (1.0 - mv.value), 0.0)))
                rows.append([p.x, p.y, p.z, omega,
                             omega / u**2 if u > 0 else math.inf])
    assert table.tolist() == rows
    assert len(record) == len(rows)


def test_form_norm_grid_rejects_unknown_weighting(dogbone01):
    with pytest.raises(ValueError, match="u_mode"):
        form_norm_grid(dogbone01, GridSpec.for_domain(dogbone01, 2), u_mode="area")


# -- clusters of grid hits -----------------------------------------------------------

def _bfs_clusters(hits):
    """Clusters of a boolean mask by breadth-first search over the 6-neighbourhood."""
    number = {cell: n for n, cell in enumerate(map(tuple, np.argwhere(hits).tolist()))}
    seen, clusters = set(), []
    for seed in number:  # in flat-index order
        if seed in seen:
            continue
        seen.add(seed)
        queue, members = deque([seed]), []
        while queue:
            cell = queue.popleft()
            members.append(number[cell])
            for axis in range(3):
                for step in (-1, 1):
                    nb = list(cell)
                    nb[axis] += step
                    nb = tuple(nb)
                    if nb in number and nb not in seen:
                        seen.add(nb)
                        queue.append(nb)
        clusters.append(tuple(sorted(members)))
    return tuple(clusters)


def _single_cell():
    hits = np.zeros((3, 4, 5), bool)
    hits[1, 2, 3] = True
    return hits


def _diagonal():
    hits = np.zeros((2, 2, 2), bool)
    hits[[0, 1], [0, 1], [0, 1]] = True  # no two cells share a face
    return hits


@pytest.mark.parametrize("hits", [
    np.zeros((3, 4, 5), bool), np.ones((3, 4, 5), bool), _single_cell(),
    np.ones((2, 2, 2), bool), _diagonal(), np.ones((2, 6, 2), bool)],
    ids=["empty", "full", "single", "full-2x2x2", "diagonal", "full-2x6x2"])
def test_clusters_of_edge_masks(hits):
    assert _clusters(hits) == _bfs_clusters(hits)


def test_clusters_match_breadth_first_search():
    rng = np.random.default_rng(20240611)
    for shape in [(2, 2, 2), (2, 5, 3), (4, 2, 6), (3, 3, 2), (6, 7, 8)]:
        for density in (0.1, 0.3, 0.5, 0.7):
            for _ in range(8):
                hits = rng.random(shape) < density
                clusters = _clusters(hits)
                assert clusters == _bfs_clusters(hits)
                assert all(type(n) is int for c in clusters for n in c)

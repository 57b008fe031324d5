"""Acceptance suite: every criterion at its stated tolerance and budget.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS line per
criterion (a failed criterion fails its test instead).
"""

import math
import time

import numpy as np

from tunnelvision.critical import (GridSpec, almost_kahler_verdict,
                                   dogbone_experiment)
from tunnelvision.domains import Difference, Disk, HalfPlane, Union, dogbone
from tunnelvision.forms import boundary_expansion_check, selfdual_algebra_check
from tunnelvision.greens import (PointConfiguration, find_quantizable,
                                 green_flux, quantization_sum, quotient_green)
from tunnelvision.groups import (limit_set_sample, min_genus, regular_polygon,
                                 side_pairing_generators, surface_relator)
from tunnelvision.hyperbolic import H3Point, laplace_beltrami
from tunnelvision.measure import (MeasureValues, QuadratureConfig,
                                  disk_closed_form, halfplane_closed_form,
                                  harmonic_measure)


def _report(num, name):
    print(f"\nACCEPTANCE {num} ({name}): PASS")


def test_criterion_01_kernel_mass():
    # the kernel has unit mass: a region and its complement (the plane off
    # the real axis, a null set, minus the region) sum to 1
    start = time.monotonic()
    cfg = QuadratureConfig(tolerance=1e-9)
    region = dogbone(0.1)
    rest = Difference(Union(HalfPlane(1j, 0.0), HalfPlane(-1j, 0.0)), region)
    for p in (H3Point(0, 0, 0.1), H3Point(0, 0, 1), H3Point(5, -3, 10)):
        total = harmonic_measure(region, p, cfg).value + harmonic_measure(rest, p, cfg).value
        assert abs(total - 1.0) < 1e-6
    assert time.monotonic() - start < 5.0
    _report(1, "kernel mass")


def test_criterion_02_closed_form_oracles():
    start = time.monotonic()
    cfg = QuadratureConfig(tolerance=1e-8)
    hp = HalfPlane(1j, 0.0)
    for y in np.linspace(-2.0, 2.0, 5):
        for z in np.geomspace(0.1, 10.0, 5):
            p = H3Point(0.7, float(y), float(z))
            got = harmonic_measure(hp, p, cfg).value
            assert abs(got - halfplane_closed_form(p)) < 1e-5
    for rho in np.linspace(0.25, 3.0, 5):
        for z in np.geomspace(0.1, 10.0, 5):
            got = harmonic_measure(Disk(0, float(rho)),
                                   H3Point(0, 0, float(z)), cfg).value
            assert abs(got - disk_closed_form(float(rho), float(z))) < 1e-5
    assert time.monotonic() - start < 60.0
    _report(2, "closed-form oracles")


def test_criterion_03_dilation_equivariance():
    cfg = QuadratureConfig(tolerance=1e-9)
    base = dogbone(0.1)
    for lam in (0.1, 1.0, 10.0):
        scaled = base.scaled(lam)
        for z in (0.3, 1.0, 2.5):
            f0 = harmonic_measure(base, H3Point(0, 0, z), cfg).value
            f1 = harmonic_measure(scaled, H3Point(0, 0, lam * z), cfg).value
            assert abs(f1 - f0) / f0 < 1e-6
    _report(3, "dilation equivariance")


def test_criterion_04_harmonicity_order():
    cfg = QuadratureConfig(tolerance=1e-11)
    domain = dogbone(0.1)

    def f(p):
        return harmonic_measure(domain, p, cfg).value

    points = [H3Point(0.3, 0.1, 0.7), H3Point(0.0, 0.0, 1.0),
              H3Point(1.0, 0.0, 0.5), H3Point(-0.5, 0.2, 0.3),
              H3Point(0.8, -0.3, 1.5), H3Point(0.1, 0.05, 0.2),
              H3Point(1.2, 0.1, 0.8), H3Point(-1.0, 0.0, 0.6),
              H3Point(0.5, 0.5, 1.0), H3Point(0.0, 0.3, 2.0)]
    for p in points:
        r1 = laplace_beltrami(f, p, 0.02)
        r2 = laplace_beltrami(f, p, 0.01)
        order = math.log2(abs(r1) / abs(r2))
        assert order >= 1.8, f"order {order:.2f} at {p}"
    _report(4, "harmonicity under step halving")


def test_criterion_05_dogbone_theorem_desk_scale():
    start = time.monotonic()
    cfg = QuadratureConfig(tolerance=1e-9)
    report, _ = dogbone_experiment(0.1, cfg, n_samples=200, threads=1)
    # strict inequality with non-overlapping error bars
    assert report.inequality_holds and not report.inconclusive
    assert report.f_at_eps.value + report.f_at_eps.error < \
        report.f_at_one.value - report.f_at_one.error
    cps = [c for c in report.critical_points if c.conclusive]
    mins = [c for c in cps if c.classification == "axis-min"]
    maxs = [c for c in cps if c.classification == "axis-max"]
    assert mins and maxs
    lo, hi = mins[0], maxs[0]
    assert hi.f_value - lo.f_value > 3 * (lo.f_error + hi.f_error)
    assert time.monotonic() - start < 600.0
    _report(5, "dogbone inequality and two critical points")


def test_criterion_06_fuchsian_negative_control():
    verdict = almost_kahler_verdict(Disk(0, 1.0),
                                    GridSpec.for_domain(Disk(0, 1.0), 20),
                                    QuadratureConfig())
    assert verdict.status == "no_critical_point_found"
    assert verdict.coverage["grid_points"] == 20**3
    assert verdict.coverage["min_grid_gradient_norm"] > \
        10 * verdict.coverage["threshold"]
    _report(6, "Fuchsian negative control")


def test_criterion_07_polygon_identities():
    for genus in range(2, 101):
        poly = regular_polygon(genus)
        assert abs(poly.area - 4 * math.pi * (genus - 1)) < 1e-10
        assert poly.center_to_vertex < 2 * poly.center_to_edge
        assert abs(poly.inradius_euclidean
                   - math.tanh(poly.center_to_edge / 2)) < 1e-12
        assert poly.inradius_euclidean > 1 - 1 / math.sqrt(genus - 1)
    assert min_genus(0.5) == 5
    _report(7, "polygon identities")


def test_criterion_08_group_correctness(hausdorff_distance):
    gens = side_pairing_generators(2)
    rel = surface_relator(gens).matrix()
    assert min(np.abs(rel - np.eye(2)).max(),
               np.abs(rel + np.eye(2)).max()) < 1e-8
    circle = np.exp(2j * np.pi * np.linspace(0, 1, 20000, endpoint=False))
    dists = [hausdorff_distance(limit_set_sample(2, depth), circle)
             for depth in (4, 5, 6)]
    assert dists[-1] < 0.05
    assert dists[0] > dists[1] > dists[2]
    _report(8, "surface group and limit set")


def test_criterion_09_greens_function(genus2_elements):
    pole = H3Point(0.3, -0.2, 0.8)
    for radius in (0.25, 0.5, 1.0, 2.0):
        assert abs(green_flux(pole, radius, 64) + 2 * math.pi) < 1e-4
    lift = H3Point(0.1, 0.05, 0.9)
    q = H3Point(0.3, -0.2, 0.6)
    sv = quotient_green(genus2_elements, lift, q, 6)
    gen0 = side_pairing_generators(2)[0].map
    sv_moved = quotient_green(genus2_elements, lift, gen0.apply_h3(q), 6)
    assert abs(sv.value - sv_moved.value) <= \
        2 * max(sv.tail_estimate, sv_moved.tail_estimate)
    sv_swapped = quotient_green(genus2_elements, q, lift, 6)
    assert abs(sv.value - sv_swapped.value) <= \
        2 * max(sv.tail_estimate, sv_swapped.tail_estimate)
    _report(9, "Green's function flux and quotient series")


def test_criterion_10_quantization():
    domain = dogbone(0.1)
    cfg = QuadratureConfig(tolerance=1e-9)
    for f_val in (0.2, 0.5, 1.0 - 1e-9):
        single = PointConfiguration(points=(H3Point(0, 0, 1),), f=MeasureValues(
            np.array([f_val]), np.zeros(1), np.ones(1, dtype=bool)))
        assert not quantization_sum(single).is_quantizable
    config = find_quantizable(domain, 2, 1, cfg)
    result = quantization_sum(config)
    assert abs(result.total - 1.0) < 1e-8
    assert result.is_quantizable and result.ell == 1
    _report(10, "quantization condition")


def test_criterion_11_boundary_expansion():
    hp = HalfPlane(1j, 0.0)
    zs = [1e-2, 5e-3, 2.5e-3]
    fit = boundary_expansion_check(hp, -1j, "outside", zs)
    assert abs(fit.coefficient - 0.25) / 0.25 < 0.01
    assert abs(fit.exponent - 2.0) < 0.1
    disk_fit = boundary_expansion_check(Disk(0, 1.0), 0j, "inside", zs)
    assert abs(disk_fit.coefficient - 1.0) < 0.01
    assert abs(disk_fit.exponent - 2.0) < 0.1
    _report(11, "boundary expansion")


def test_criterion_12_selfdual_algebra():
    rng = np.random.default_rng(8128)
    worst = 0.0
    for _ in range(1000):
        psi = rng.normal(size=3)
        v = rng.uniform(0.05, 20.0)
        worst = max(worst, selfdual_algebra_check(psi, v))
    assert worst < 1e-12
    _report(12, "self-dual form algebra")

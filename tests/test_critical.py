import numpy as np
import pytest

from tunnelvision.critical import (GridSpec, RefinementError,
                                   almost_kahler_verdict, axis_critical_points,
                                   axis_profile, dogbone_experiment,
                                   refine_critical_point_3d)
from tunnelvision.domains import Disk, HalfPlane, Union, dogbone
from tunnelvision.hyperbolic import H3Point
from tunnelvision.measure import (QuadratureConfig, harmonic_measure,
                                  measure_with_gradient)

CFG = QuadratureConfig(tolerance=1e-9)


def test_verdict_axis_extrema_conclusive():
    # the f margins of the eps=0.1 minimum are within the noise of f, but
    # df/dz at the bracket ends is far outside its error bars
    d = dogbone(0.1)
    verdict = almost_kahler_verdict(d, GridSpec.for_domain(d, 6))
    axis = {r.classification: r for r in verdict.reports
            if r.classification.startswith("axis-")}
    assert sorted(axis) == ["axis-max", "axis-min"]
    assert all(r.conclusive for r in axis.values())
    assert verdict.status == "critical_points_found"


@pytest.fixture(scope="module")
def dogbone_run():
    return dogbone_experiment(0.1, CFG, n_samples=200)


def test_axis_profile_matches_disk_form():
    prof = axis_profile(Disk(0, 1.0), 0.05, 10.0, 40, CFG)
    expected = 1.0 / (1.0 + prof.z**2)
    assert np.allclose(prof.f, expected, atol=1e-8)
    # the closed form is strictly decreasing, and so is the profile
    assert np.all(np.diff(prof.f) < 0)


def test_axis_profile_validation():
    with pytest.raises(ValueError):
        axis_profile(Disk(0, 1.0), 1.0, 0.5, 10, CFG)
    with pytest.raises(ValueError):
        axis_profile(Disk(0, 1.0), 0.5, 1.0, 1, CFG)


def test_dogbone_profile_limits(dogbone01):
    near = harmonic_measure(dogbone01, H3Point(0, 0, 1e-4), CFG)
    far = harmonic_measure(dogbone01, H3Point(0, 0, 100.0), CFG)
    assert near.value > 0.9
    assert far.value < 0.01


def test_disk_has_no_axis_critical_points():
    domain = Disk(0, 1.0)
    prof = axis_profile(domain, 0.05, 10.0, 60, CFG)
    assert axis_critical_points(prof, domain, 1e-6, CFG) == []


def test_axis_search_rejects_unbounded():
    hp = HalfPlane(1j, 0.0)
    prof_domain = Disk(0, 1.0)
    prof = axis_profile(prof_domain, 0.05, 10.0, 10, CFG)
    with pytest.raises(ValueError, match="bounded"):
        axis_critical_points(prof, hp, 1e-6, CFG)


def test_axis_search_rejects_asymmetric():
    lopsided = Disk(1.0, 0.25)
    prof = axis_profile(Disk(0, 1.0), 0.05, 10.0, 10, CFG)
    with pytest.raises(ValueError, match="symmetry"):
        axis_critical_points(prof, lopsided, 1e-6, CFG)


def test_dogbone_experiment_finds_the_phenomenon(dogbone_run):
    report, profile = dogbone_run
    assert report.inequality_holds
    assert not report.inconclusive
    assert report.f_at_eps.value + report.f_at_eps.error < \
        report.f_at_one.value - report.f_at_one.error
    cps = [c for c in report.critical_points if c.conclusive]
    assert len(cps) >= 2
    kinds = [c.classification for c in cps]
    assert "axis-min" in kinds and "axis-max" in kinds


def test_dogbone_min_before_max_with_distinct_values(dogbone_run):
    report, _ = dogbone_run
    mins = [c for c in report.critical_points if c.classification == "axis-min"]
    maxs = [c for c in report.critical_points if c.classification == "axis-max"]
    first_min = min(mins, key=lambda c: c.location.z)
    first_max = min((m for m in maxs if m.location.z > first_min.location.z),
                    key=lambda c: c.location.z)
    assert first_min.f_value < first_max.f_value
    gap = first_max.f_value - first_min.f_value
    assert gap > 3 * (first_min.f_error + first_max.f_error)


def test_reports_pass_recheck_at_doubled_precision(dogbone_run):
    report, _ = dogbone_run
    sharper = QuadratureConfig(tolerance=CFG.tolerance / 2)
    for cp in report.critical_points:
        _, grad, _ = measure_with_gradient(dogbone(0.1), cp.location, sharper)
        norm = cp.location.z * float(np.linalg.norm(grad))
        assert norm < cp.tolerance


def test_dogbone_one_height_exceeds_two_disk_bound(dogbone_run):
    report, _ = dogbone_run
    # the corridor only adds measure, so the corridor-free two-disk value
    # bounds f(0,0,1) from below
    two_disks = Union(Disk(1.0, 0.25), Disk(-1.0, 0.25))
    bound = harmonic_measure(two_disks, H3Point(0, 0, 1.0), CFG)
    assert report.f_at_one.value >= bound.value - 2 * CFG.tolerance


def test_fat_corridor_report_is_well_formed():
    report, profile = dogbone_experiment(0.45, CFG, n_samples=50)
    assert report.epsilon == 0.45
    assert 0.0 <= report.f_at_eps.value <= 1.0
    assert 0.0 <= report.f_at_one.value <= 1.0
    assert isinstance(report.inequality_holds, bool)
    assert len(profile.z) == 50
    obj = report.to_obj()
    assert set(obj) == {"epsilon", "f_at_eps", "f_at_one", "inequality_holds",
                        "inconclusive", "critical_points", "window", "samples"}


def test_experiment_epsilon_validation():
    with pytest.raises(ValueError):
        dogbone_experiment(-1.0, CFG)
    with pytest.raises(ValueError):
        dogbone_experiment(0.5, CFG)


def test_refine_from_axis_point_stays_put(dogbone_run, dogbone01):
    report, _ = dogbone_run
    cp = report.critical_points[0]
    refined = refine_critical_point_3d(dogbone01, cp.location, 1e-6, CFG,
                                       max_steps=5)
    assert refined.classification == "3d-refined"
    assert refined.grad_norm_hyperbolic < 1e-6
    assert abs(refined.location.z - cp.location.z) < 1e-3
    assert abs(refined.location.x) < 1e-3 and abs(refined.location.y) < 1e-3


def test_refine_diverges_on_disk():
    with pytest.raises(RefinementError):
        refine_critical_point_3d(Disk(0, 1.0), H3Point(0.3, 0.0, 1.0),
                                 1e-6, CFG)


def test_refine_tracks_perturbed_domain(dogbone_run, dogbone01):
    report, _ = dogbone_run
    cp = min(report.critical_points, key=lambda c: c.location.z)
    lopsided = Union(Disk(1.0, 0.26), Disk(-1.0, 0.25), dogbone01)
    refined = refine_critical_point_3d(lopsided, cp.location, 1e-7, CFG)
    assert refined.grad_norm_hyperbolic < 1e-7
    # nearby, but genuinely off-axis now
    assert abs(refined.location.z - cp.location.z) < 0.05
    assert 0 < abs(refined.location.x) < 0.05


def test_verdict_fuchsian_negative_control():
    verdict = almost_kahler_verdict(Disk(0, 1.0),
                                    GridSpec(x=(-0.8, 0.8, 6),
                                             y=(-0.8, 0.8, 6),
                                             z=(0.1, 8.0, 8)),
                                    QuadratureConfig())
    assert verdict.status == "no_critical_point_found"
    assert verdict.reports == ()
    assert verdict.coverage["min_grid_gradient_norm"] > \
        10 * verdict.coverage["threshold"]


def test_verdict_dogbone_positive(dogbone01):
    verdict = almost_kahler_verdict(dogbone01,
                                    GridSpec(x=(-0.3, 0.3, 3),
                                             y=(-0.3, 0.3, 3),
                                             z=(0.05, 5.0, 6)),
                                    QuadratureConfig())
    assert verdict.status == "critical_points_found"
    assert len(verdict.reports) >= 2


def test_verdict_monotone_under_grid_refinement(dogbone01):
    small = almost_kahler_verdict(dogbone01,
                                  GridSpec(x=(-0.3, 0.3, 3), y=(-0.3, 0.3, 3),
                                           z=(0.05, 5.0, 4)),
                                  QuadratureConfig())
    bigger = almost_kahler_verdict(dogbone01,
                                   GridSpec(x=(-0.4, 0.4, 5),
                                            y=(-0.4, 0.4, 5),
                                            z=(0.05, 6.0, 6)),
                                   QuadratureConfig())
    assert small.status == "critical_points_found"
    assert bigger.status == "critical_points_found"


def test_verdict_rejects_halfplane():
    with pytest.raises(ValueError):
        almost_kahler_verdict(HalfPlane(1j, 0.0), None, CFG)


def test_verdict_rejects_domain_missing_origin():
    with pytest.raises(ValueError):
        almost_kahler_verdict(Disk(5.0, 1.0), None, CFG)

import cmath
import hashlib
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tunnelvision import critical
from tunnelvision.critical import (AxisProfile, GridSpec, RefinementError,
                                   _bracketed_roots, almost_kahler_verdict,
                                   axis_critical_points, axis_profile,
                                   dogbone_experiment, refine_critical_point_3d)
from tunnelvision.domains import (Difference, Disk, HalfPlane, Intersection, Union,
                                  dogbone)
from tunnelvision.forms import zero_locus_report
from tunnelvision.hyperbolic import H3Point, MobiusMap
from tunnelvision.measure import (QuadratureConfig, harmonic_measure, measure_many,
                                  measure_with_gradient)
from tunnelvision.runio import dump_json

CFG = QuadratureConfig(tolerance=1e-9)
REFERENCE = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                         "reference.json")


def _on_each(*fs, calls=None):
    """g(which, xs) for brackets of the functions fs, recording every round."""
    def g(which, xs):
        if calls is not None:
            calls.append(list(zip(which, xs)))
        return [fs[n](x) for n, x in zip(which, xs)]
    return g


def test_bracketed_root_meets_xtol():
    calls = []
    g = _on_each(math.cos, calls=calls)
    [x] = _bracketed_roots(g, [(0.0, 3.0, 1.0, math.cos(3.0))], 1e-12)
    assert abs(x - 0.5 * math.pi) <= 0.5e-12
    assert all(0.0 < c < 3.0 for [(_, c)] in calls)
    assert len(calls) < 15
    # a zero hit exactly is returned as it is
    assert _bracketed_roots(_on_each(lambda t: t - 1.0),
                            [(0.0, 4.0, -1.0, 3.0)], 1e-9) == [1.0]
    # an xtol below the float spacing of the bracket still terminates
    calls.clear()
    [x] = _bracketed_roots(g, [(0.0, 3.0, 1.0, math.cos(3.0))], 1e-20)
    assert abs(x - 0.5 * math.pi) <= 4.0 * math.ulp(3.0)
    assert len(calls) < 20


def test_bracketed_roots_solve_each_bracket_as_alone():
    fs = (math.cos, lambda t: t - 1.0, lambda t: math.exp(-t) - 0.3, math.sin)
    brackets = [(0.0, 3.0, 1.0, math.cos(3.0)),
                (0.0, 4.0, -1.0, 3.0),
                (0.0, 5.0, 0.7, math.exp(-5.0) - 0.3),
                (2.0, 4.5, math.sin(2.0), math.sin(4.5))]
    for xtol in (1e-12, 1e-20):
        calls = []
        roots = _bracketed_roots(_on_each(*fs, calls=calls), brackets, xtol)
        alone = []
        for n, (f, br) in enumerate(zip(fs, brackets)):
            own = []
            [root] = _bracketed_roots(_on_each(f, calls=own), [br], xtol)
            assert root.hex() == roots[n].hex()
            # the same iterates, one per round while the bracket is open
            steps = [x for rnd in own for _, x in rnd]
            assert steps == [x for rnd in calls for m, x in rnd if m == n]
            alone.append(len(own))
        assert len(calls) == max(alone) and sum(alone) > len(calls)


def test_axis_critical_points_meet_refine_tol():
    with open(REFERENCE) as fh:
        ref = {e["eps"]: e for e in json.load(fh)["eps"]}[0.1]
    report, _ = dogbone_experiment(0.1)
    for rc in ref["critical_points"]:
        [cp] = [c for c in report.critical_points
                if c.classification == rc["classification"]]
        assert cp.conclusive and cp.tolerance == 1e-6
        assert abs(cp.location.z - rc["z"]) <= cp.tolerance


def test_axis_bracket_without_slope_sign_change():
    # a bump put into a disk profile: the discrete derivative changes sign,
    # but df/dz < 0 at both bracket ends, so there is no zero to solve for
    domain = Disk(0, 1.0)
    z = np.array([0.5, 0.6, 0.7, 0.8])
    f = 1.0 / (1.0 + z**2)
    f[1] = 0.9
    prof = AxisProfile(z=z, f=f, err=np.zeros(4), converged=np.ones(4, bool))
    [cp] = axis_critical_points(prof, domain, 1e-6, CFG)
    assert cp.classification == "axis-max"
    assert cp.location.z == 0.6
    assert not cp.conclusive
    # nothing was solved: the tolerance is the bracket's half-width
    assert cp.tolerance == max(0.6 - 0.5, 0.7 - 0.6)


def test_axis_bracket_with_slopes_of_the_wrong_type():
    # a bump put over the dogbone's axis minimum: the discrete derivative
    # calls it a maximum, while df/dz goes from < 0 to > 0 across it; the
    # zero of df/dz there is a minimum, so none is solved for
    with open(REFERENCE) as fh:
        ref = {e["eps"]: e for e in json.load(fh)["eps"]}[0.1]
    [z_min] = [c["z"] for c in ref["critical_points"]
               if c["classification"] == "axis-min"]
    z = np.array([z_min / 1.3, z_min, z_min * 1.3])
    prof = AxisProfile(z=z, f=np.array([0.01, 0.02, 0.01]), err=np.zeros(3),
                       converged=np.ones(3, bool))
    [cp] = axis_critical_points(prof, dogbone(0.1), 1e-6, CFG)
    assert cp.classification == "axis-max"
    assert cp.location.z == z_min
    assert not cp.conclusive
    assert cp.tolerance == max(z[1] - z[0], z[2] - z[1])


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


def test_axis_search_flags_asymmetric_extrema(dogbone01):
    # off the half-turn symmetry the axis is no gradient line: its extrema
    # are reported, with a horizontal gradient beyond its error bound
    lopsided = Union(Disk(1.0, 0.26), Disk(-1.0, 0.25), dogbone01)
    prof = axis_profile(lopsided, 0.01, 10.0, 60, CFG)
    reports = axis_critical_points(prof, lopsided, 1e-6, CFG)
    assert [r.classification for r in reports] == ["axis-min", "axis-max"]
    assert not any(r.conclusive for r in reports)


@pytest.mark.parametrize("r", [0.003, 0.01])
def test_near_symmetric_union_gets_no_conclusive_axis_report(dogbone01, r):
    # the small disk covers ~6e-5 of the bounding disk's area, which a
    # sampled symmetry test misses; the horizontal gradient does not
    region = Union(dogbone01, Disk(0.5 + 0.3j, r))
    prof = axis_profile(region, 0.01, 10.0, 60, CFG)
    reports = axis_critical_points(prof, region, 1e-6, CFG)
    assert len(reports) == 2 and not any(rep.conclusive for rep in reports)
    # Newton from each axis report finds the critical point beside it
    verdict = almost_kahler_verdict(region, GridSpec.for_domain(region, 8))
    assert verdict.status == "critical_points_found"
    assert [(r.classification, r.conclusive) for r in verdict.reports] == \
        [("3d-refined", True), ("3d-refined", True)]


def test_mirrored_disks_keep_conclusive_axis_reports(dogbone01):
    region = Union(dogbone01, Disk(0.5 + 0.3j, 0.01), Disk(-0.5 - 0.3j, 0.01))
    verdict = almost_kahler_verdict(region, GridSpec.for_domain(region, 8))
    assert verdict.status == "critical_points_found"
    assert [(r.classification, r.conclusive) for r in verdict.reports] == \
        [("axis-min", True), ("axis-max", True)]


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


def test_a_square_of_half_planes_is_searched(halfplane_square):
    # bounded by its arrangement, though every primitive is unbounded
    grid = GridSpec.for_domain(halfplane_square, 8)
    r = math.sqrt(2.0)
    assert grid.x == grid.y == (pytest.approx(-r, rel=1e-15), pytest.approx(r, rel=1e-15), 8)
    assert grid.z == (pytest.approx(0.05 * r), pytest.approx(8.0 * r), 8)
    profile = axis_profile(halfplane_square, grid.z[0], grid.z[1], 60, CFG)
    assert axis_critical_points(profile, halfplane_square, 1e-6, CFG) == []
    verdict = almost_kahler_verdict(halfplane_square, grid)
    assert verdict.status == "no_critical_point_found"
    assert verdict.coverage["nonconverged_evaluations"] == 0


def test_an_empty_region_is_refused_as_empty():
    # two disjoint disks intersected: no boundary pieces, radius 0
    empty = Intersection(Disk(2.0, 0.5), Disk(-2.0, 0.5))
    with pytest.raises(ValueError, match="region is empty"):
        GridSpec.for_domain(empty)
    for search in (None, GridSpec()):
        with pytest.raises(ValueError, match="region is empty"):
            almost_kahler_verdict(empty, search)


# A region bounded by two disjoint circles has one critical point, on the
# geodesic between the limit points of the circles' pencil, at height
# sqrt(R1 R2) once a Mobius map makes the circles concentric with radii R1, R2.
# Concentric circles need no map; disks of radius r centred at +-c have their
# limit points at +-sqrt(c^2 - r^2), and the geodesic's top is at that height.
@pytest.mark.parametrize("region, z", [
    (Union(Disk(1.0, 0.5), Disk(-1.0, 0.5)), math.sqrt(0.75)),
    (Difference(Disk(0, 1.0), Disk(0, 0.5)), math.sqrt(0.5))],
    ids=["two-disks", "annulus"])
def test_verdict_meets_the_two_circle_closed_form(region, z):
    # neither region contains 0; the axis search needs only a bounded region
    assert not region.contains(0j)
    verdict = almost_kahler_verdict(region, GridSpec.for_domain(region, 8))
    assert verdict.status == "critical_points_found"
    [report] = verdict.reports
    assert (report.classification, report.conclusive) == ("axis-max", True)
    assert abs(report.location.z - z) <= report.tolerance


def two_circle_critical_point(c1, r1, c2, r2) -> H3Point:
    """The critical point of a region bounded by two disjoint, non-concentric circles.

    The region is two disjoint disks, or a disk minus a disk inside it.  The
    limit points of the circles' pencil are the pair of points inverse to
    each other in both circles; on the line of centres, at c1 + x e and
    c1 + (r1^2 / x) e, where d x^2 - (d^2 + r1^2 - r2^2) x + d r1^2 = 0.
    g sends them to 0 and infinity, the circles to concentric ones of radii
    R1 > R2, and the critical point is g^-1(0, 0, sqrt(R1 R2)).
    """
    d = abs(c2 - c1)
    e = (c2 - c1) / d
    b = d * d + r1 * r1 - r2 * r2
    x = (b + math.sqrt((b - 2.0 * d * r1) * (b + 2.0 * d * r1))) / (2.0 * d)
    g = MobiusMap(1.0, -(c1 + x * e), 1.0, -(c1 + r1 * r1 / x * e))
    R1, R2 = (abs(g.apply_boundary(c + r)) for c, r in ((c1, r1), (c2, r2)))
    return g.inverse().apply_h3(H3Point(0.0, 0.0, math.sqrt(R1 * R2)))


def test_two_circle_closed_form_on_the_symmetric_cases():
    # disks of radius r centred at +-c have their limit points at
    # +-sqrt(c^2 - r^2), so the critical point is on the axis at that height
    p = two_circle_critical_point(1.0, 0.5, -1.0, 0.5)
    assert (p.x, p.y, p.z) == pytest.approx((0.0, 0.0, math.sqrt(0.75)), abs=1e-15)
    p = two_circle_critical_point(0j, 1.0, 0.4, 0.2)   # Baseline: (0.5, 0, 0.387298)
    assert (p.x, p.y, p.z) == pytest.approx((0.5, 0.0, math.sqrt(0.15)), abs=1e-15)


@st.composite
def two_circle_regions(draw):
    """(region, c1, r1, c2, r2, chi): two disjoint disks or a holed disk."""
    c1 = complex(draw(st.floats(-1.0, 1.0)), draw(st.floats(-1.0, 1.0)))
    turn = cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
    if draw(st.booleans()):
        r1, r2 = draw(st.floats(0.2, 1.0)), draw(st.floats(0.2, 1.0))
        c2 = c1 + (r1 + r2 + draw(st.floats(0.1, 1.5))) * turn
        return Union(Disk(c1, r1), Disk(c2, r2)), c1, r1, c2, r2, 2
    r1 = draw(st.floats(0.5, 1.5))
    r2 = draw(st.floats(0.1, 0.6)) * r1
    c2 = c1 + draw(st.floats(0.05, 1.0)) * (0.9 * r1 - r2) * turn
    return Difference(Disk(c1, r1), Disk(c2, r2)), c1, r1, c2, r2, 0


@given(two_circle_regions())
def test_two_circle_regions_meet_their_closed_form(case):
    region, c1, r1, c2, r2, chi = case
    p = two_circle_critical_point(c1, r1, c2, r2)
    record = measure_many(region, [p], CFG, gradient=True)
    assert np.all(np.abs(record.gradients[0]) <= record.gradient_errors[0])
    seed = H3Point(p.x + 0.01, p.y - 0.01, 1.02 * p.z)
    report = refine_critical_point_3d(region, seed, 1e-9, CFG)
    assert np.abs(report.location.as_array() - p.as_array()).max() <= 1e-6
    # the index identity: sign det H sums to chi - 1 over the critical points
    assert np.sign(report.hessian_det) == chi - 1


def _translated_dogbone(epsilon, s):
    """dogbone(epsilon) translated by the real s, built from the same primitives."""
    h = epsilon**3
    return Union(Disk(1.0 + s, 0.25), Disk(-1.0 + s, 0.25),
                 Intersection(Disk(s, 1.0), HalfPlane(1j, -h), HalfPlane(-1j, -h)))


def test_verdict_on_a_translated_dogbone_finds_the_shifted_pair(dogbone01):
    # off the origin the axis extrema are not critical points; Newton from
    # each lands on the dogbone's own pair, shifted
    config = QuadratureConfig()
    axis = almost_kahler_verdict(dogbone01, GridSpec.for_domain(dogbone01, 8), config)
    region = _translated_dogbone(0.1, 0.3)
    verdict = almost_kahler_verdict(region, GridSpec.for_domain(region, 8), config)
    assert verdict.status == "critical_points_found"
    assert [r.classification for r in verdict.reports] == ["3d-refined"] * 2
    assert all(r.conclusive for r in verdict.reports)
    for moved, r in zip(verdict.reports, axis.reports):
        expected = np.array([r.location.x + 0.3, r.location.y, r.location.z])
        assert np.abs(moved.location.as_array() - expected).max() <= \
            10 * config.tolerance


# -- one arrangement per experiment --------------------------------------------------

def test_dogbone_experiment_builds_its_arrangement_once(arrangement_builds):
    dogbone_experiment(0.1)
    assert arrangement_builds[0] == 1


def test_verdict_builds_its_arrangement_once(arrangement_builds):
    # at the default tolerance no grid point is refined, and the axis search
    # runs on the verdict's domain object
    region = dogbone(0.1)
    verdict = almost_kahler_verdict(region, GridSpec.for_domain(region, 6))
    assert {r.classification for r in verdict.reports} == {"axis-min", "axis-max"}
    assert arrangement_builds[0] == 1


def test_refinement_builds_its_arrangement_once(arrangement_builds):
    refine_critical_point_3d(dogbone(0.1), H3Point(0.01, -0.02, 0.95), 1e-6)
    assert arrangement_builds[0] == 1


@pytest.fixture
def refinements(monkeypatch):
    """Count the ``refine_critical_point_3d`` calls, which the off-axis search makes by name."""
    count = [0]

    def counted(*args, **kwargs):
        count[0] += 1
        return refine_critical_point_3d(*args, **kwargs)

    monkeypatch.setattr(critical, "refine_critical_point_3d", counted)
    return count


@pytest.fixture
def lopsided(dogbone01):
    """The dogbone with one end disk enlarged: no half-turn symmetry."""
    return Union(Disk(1, 0.26), Disk(-1, 0.25), dogbone01)


def _lopsided_critical_point(region):
    """The lopsided union's lower critical point, refined from its axis minimum."""
    profile = axis_profile(region, 0.05, 10.0, 200)
    axis_min = axis_critical_points(profile, region)[0]
    assert axis_min.classification == "axis-min" and not axis_min.conclusive
    p = refine_critical_point_3d(region, axis_min.location, 1e-6).location
    assert p.x == pytest.approx(-0.008993, abs=1e-6) and abs(p.y) < 1e-12
    assert p.z == pytest.approx(0.155947, abs=1e-6)
    return H3Point(p.x, 0.0, p.z)


def test_verdict_builds_one_arrangement_per_refinement(arrangement_builds,
                                                     lopsided, refinements):
    # both axis reports are not conclusive and seed Newton, all on the
    # verdict's own arrangement
    verdict = almost_kahler_verdict(lopsided, GridSpec.for_domain(lopsided, 4))
    assert refinements[0] == 2
    assert [r.classification for r in verdict.reports] == ["3d-refined"] * 2
    assert arrangement_builds[0] == 1


def test_zero_locus_refines_on_its_own_arrangement(arrangement_builds, lopsided,
                                                   refinements):
    p = _lopsided_critical_point(lopsided)
    arrangement_builds[0] = refinements[0] = 0
    # an equal region without the arrangement kept on ``lopsided``
    report = zero_locus_report(Union(*lopsided.args), _grid_around(p))
    assert len(report.clusters) == refinements[0] == 1
    assert arrangement_builds[0] == 1


def test_loose_tolerance_verdict_reports_only_the_axis_pair(dogbone01):
    # at tol 1e-4 the seed threshold 1e-3 admits grid points near the plane,
    # where the gradient is small but the Newton step is not; none of them
    # may come back unmoved as a critical point
    verdict = almost_kahler_verdict(dogbone01, GridSpec.for_domain(dogbone01, 6),
                                    QuadratureConfig(tolerance=1e-4))
    assert [(r.classification, r.conclusive) for r in verdict.reports] == \
        [("axis-min", True), ("axis-max", True)]
    with pytest.raises(RefinementError):
        refine_critical_point_3d(dogbone01, H3Point(-1.25, -1.25, 0.0625), 1e-3,
                                 QuadratureConfig(tolerance=1e-4))


def _grid_around(p: H3Point, h: float = 0.01, z_factor: float = 1.1) -> GridSpec:
    """A 3 x 3 x 3 grid whose middle point is p."""
    return GridSpec(x=(p.x - h, p.x + h, 3), y=(p.y - h, p.y + h, 3),
                    z=(p.z / z_factor, p.z * z_factor, 3))


def test_verdict_appends_an_off_axis_critical_point(refinements):
    # the three disks have critical points off the axis and none on it.  A
    # grid point on one of them makes it a cluster seed, and the verdict
    # appends the refined report
    region = Union(Disk(0, 0.4), Disk(1.5, 0.4), Disk(-1.5, 0.4))
    p = refine_critical_point_3d(region, H3Point(0.75, 0.0, 0.64), 1e-6).location
    assert p.x == pytest.approx(0.753395, abs=1e-6) and abs(p.y) < 1e-12
    assert p.z == pytest.approx(0.644733, abs=1e-6)
    refinements[0] = 0
    verdict = almost_kahler_verdict(region, _grid_around(H3Point(p.x, 0.0, p.z)))
    assert refinements[0] == 1
    assert verdict.status == "critical_points_found"
    [report] = verdict.reports
    assert (report.classification, report.conclusive) == ("3d-refined", True)
    assert abs(report.location.x - p.x) + abs(report.location.z - p.z) < 1e-9


def test_verdict_drops_a_refined_point_on_an_axis_report(lopsided, refinements,
                                                        monkeypatch):
    # Newton from the axis minimum and from the grid's middle converge onto
    # the same critical point; the grid's duplicate is dropped
    p = _lopsided_critical_point(lopsided)
    close = []

    def recording(p, q, close_to=critical._close):
        close.append(close_to(p, q))
        return close[-1]

    monkeypatch.setattr(critical, "_close", recording)
    refinements[0] = 0
    verdict = almost_kahler_verdict(lopsided, _grid_around(p))
    assert refinements[0] == 2
    assert close == [True]
    assert [(r.classification, r.conclusive) for r in verdict.reports] == \
        [("3d-refined", True)]


# -- lockstep solves: fewer evaluation calls, the same bits --------------------------

# Recorded before the brackets were solved in lockstep (numpy 2.4, x86-64):
# per critical point, z, f, f's error and the Hessian determinant as hex floats.
DOGBONE_01_BITS = [
    ("axis-min", "0x1.448400cc55de4p-3", "0x1.3c6f128c00d24p-7",
     "0x1.03629cbef0e96p-46", "-0x1.3a8b3177542c4p-5"),
    ("axis-max", "0x1.e632938304ac8p-1", "0x1.0a6108e8425c9p-5",
     "0x1.1270a73d1a26ep-48", "0x1.3d5acc5174629p-11"),
]


@pytest.mark.parametrize("tol", [1e-7, 1e-9])
def test_dogbone_reports_keep_their_bits(tol):
    report, _ = dogbone_experiment(0.1, QuadratureConfig(tolerance=tol))
    assert [(c.classification, c.location.z.hex(), c.f_value.hex(),
             c.f_error.hex(), c.hessian_det.hex())
            for c in report.critical_points] == DOGBONE_01_BITS
    assert all(c.location.x == c.location.y == 0.0 and c.tolerance == 1e-6
               for c in report.critical_points)


def test_dogbone_experiment_evaluation_calls(measure_calls, arrangement_builds):
    # f(eps) and f(1), the profile, the bracket ends, one call per solver
    # round of both brackets together, and one for both reports
    dogbone_experiment(0.1)
    assert measure_calls[0] == 9
    # the axis search takes the experiment's own domain object
    assert arrangement_builds[0] == 1


def test_monotone_profile_makes_no_empty_evaluation(measure_calls):
    report, profile = dogbone_experiment(0.3)
    assert report.critical_points == () and np.all(np.diff(profile.f) < 0)
    assert measure_calls[0] == 2


def test_grid_spec_validation():
    d = Disk(0, 1.0)
    for n in (0, 1):
        with pytest.raises(ValueError, match="at least 2 points"):
            GridSpec.for_domain(d, n)
    with pytest.raises(ValueError, match="lo < hi"):
        GridSpec(z=(2.0, 1.0, 3))
    with pytest.raises(ValueError, match="lo < hi"):
        GridSpec(x=(0.3, 0.3, 2))
    with pytest.raises(ValueError, match="positive"):
        GridSpec(z=(-1.0, 1.0, 3))
    assert len(GridSpec.for_domain(d, 2).points()) == 8


def test_grid_points_follow_the_nested_loop_order():
    grid = GridSpec(x=(-0.7, 0.4, 3), y=(-0.2, 0.9, 4), z=(0.05, 3.0, 5))
    xs, ys, zs = grid.axes()
    loop = [(float(x), float(y), float(z)) for x in xs for y in ys for z in zs]
    pts = grid.points()
    assert pts.shape == (len(loop), 3)
    assert [tuple(row) for row in pts.tolist()] == loop


# Recorded while each Newton candidate took two evaluation calls (numpy 2.4,
# x86-64): location, f, f's error, hyperbolic gradient norm, Hessian determinant.
REFINED_BITS = (["0x1.13efbb4408000p-29", "-0x1.46ec63ff40000p-31",
                 "0x1.e6329bbd31647p-1"], "0x1.0a6108e8426e5p-5",
                "0x1.1270a45d439e0p-48", "0x1.217983ba78e19p-32",
                "0x1.3d5aaa779c1a3p-11")


def _refined_bits(rep):
    loc = rep.location
    return ([float(v).hex() for v in (loc.x, loc.y, loc.z)],
            rep.f_value.hex(), rep.f_error.hex(),
            float(rep.grad_norm_hyperbolic).hex(),
            rep.hessian_det.hex())


def test_refinement_evaluates_each_candidate_with_its_stencil(measure_calls,
                                                              dogbone01):
    # the start point and two accepted candidates, each with its six-point
    # Hessian stencil in the same call
    rep = refine_critical_point_3d(dogbone01, H3Point(0.01, -0.02, 0.95), 1e-6)
    assert measure_calls[0] == 3
    assert _refined_bits(rep) == REFINED_BITS


# sha256 of the verdict's and the zero-locus report's JSON for dogbone(0.1)
# on its grid of 8 (numpy 2.4, x86-64).  The verdict's were recorded while it
# seeded Newton at every grid point with z |grad f| below 10 tol; the
# report's when it lost its weighting option and wrote its hit rows as lists.
SEARCH_SHA256 = {
    1e-7: ("95f304b17c701aad393b41c781307f84f3a4ffe6b89d81d20e0ae2a1b6051a76",
           "53d9c3657964a3a3abf6ca159274b93d2d4b807b9fcf6ad2d0feccb96e6082db"),
    1e-4: ("cd72b72abdb5cf33c19e0c4b31e948bfe0cb4a0418a0c06ae965d938b11dcfe8",
           "b277a83d5fff3d58a5e812c4170c44ce5821e27aef0cf5ff444397b7c3cd2c22"),
}


@pytest.mark.parametrize("tol", sorted(SEARCH_SHA256))
def test_verdict_and_zero_locus_keep_their_bits(dogbone01, refinements, tol):
    grid = GridSpec.for_domain(dogbone01, 8)
    config = QuadratureConfig(tolerance=tol)
    verdict = almost_kahler_verdict(dogbone01, grid, config)
    newton_runs = refinements[0]
    zeros = zero_locus_report(dogbone01, grid, config)
    assert tuple(hashlib.sha256(dump_json(r.to_obj()).encode()).hexdigest()
                 for r in (verdict, zeros)) == SEARCH_SHA256[tol]
    # the axis reports are conclusive and the weighting keeps the far field
    # out of the hits, so neither search runs Newton
    assert newton_runs == len(zeros.clusters) == 0

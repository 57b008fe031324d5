import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tunnelvision import greens, measure
from tunnelvision.domains import Difference, Disk, Union, dogbone
from tunnelvision.greens import (NonConvergentSeriesError, PoleCollisionError,
                                 PointConfiguration, find_quantizable,
                                 green_flux, h3_green, potential_V,
                                 quantization_sum, quotient_green)
from tunnelvision.groups import GroupElements, enumerate_group
from tunnelvision.hyperbolic import H3Point, MobiusMap, h3_distance, laplace_beltrami
from tunnelvision.measure import MeasureValues, QuadratureConfig, _row_sums

CFG = QuadratureConfig(tolerance=1e-9)


def _measured(*values, errors=None, converged=None):
    """A MeasureValues record of the given values (exact and converged by default)."""
    n = len(values)
    return MeasureValues(np.array(values, dtype=float),
                         np.zeros(n) if errors is None else np.array(errors),
                         np.ones(n, dtype=bool) if converged is None
                         else np.array(converged))


def test_green_term_formula():
    # at distance log sqrt(2) the term is 1/(e^{2d} - 1) = 1/(2 - 1) = 1
    p, q = H3Point(0, 0, 1), H3Point(0, 0, math.sqrt(2.0))
    assert h3_distance(p, q) == pytest.approx(math.log(math.sqrt(2.0)),
                                              abs=1e-15)
    assert h3_green(p, q) == pytest.approx(1.0, abs=1e-12)


def test_green_decay():
    p = H3Point(0, 0, 1)
    assert h3_green(p, H3Point(0, 0, 1e6)) < 1e-10
    assert h3_green(p, H3Point(0, 0, 1.5)) > h3_green(p, H3Point(0, 0, 5.0))


def test_green_pole_collision():
    p = H3Point(0, 0, 1)
    with pytest.raises(PoleCollisionError):
        h3_green(p, H3Point(0, 0, 1 + 1e-12))


def test_green_is_harmonic_off_pole():
    pole = H3Point(0, 0, 1)

    def g(q):
        return h3_green(pole, q)

    r1 = laplace_beltrami(g, H3Point(1, 1, 2), 0.02)
    r2 = laplace_beltrami(g, H3Point(1, 1, 2), 0.01)
    assert abs(r1) < 1e-3
    assert math.log2(abs(r1) / abs(r2)) >= 1.8


@pytest.mark.parametrize("radius", [0.25, 0.5, 1.0, 2.0])
def test_flux_is_minus_two_pi(radius):
    flux = green_flux(H3Point(0.3, -0.2, 0.8), radius, 64)
    assert flux == pytest.approx(-2 * math.pi, abs=1e-4)


def test_flux_radius_independence():
    pole = H3Point(0, 0, 1)
    fluxes = [green_flux(pole, r, 48) for r in (0.25, 2.0)]
    assert fluxes[0] == pytest.approx(fluxes[1], abs=1e-4)


def test_flux_ignores_distant_pole():
    p1, p2 = H3Point(0, 0, 1), H3Point(1.0, 0.0, 1.0)

    def two_pole(q):
        return h3_green(p1, q) + h3_green(p2, q)

    flux = green_flux(p1, 0.3, 48, field=two_pole)
    assert flux == pytest.approx(-2 * math.pi, abs=1e-4)


def test_flux_validation():
    with pytest.raises(ValueError):
        green_flux(H3Point(0, 0, 1), -1.0, 32)
    with pytest.raises(ValueError):
        green_flux(H3Point(0, 0, 1), 0.5, 2)


def test_quotient_trivial_group_equals_free_green(genus2_generators):
    identity_only = enumerate_group(genus2_generators, 0)
    pole, q = H3Point(0.1, 0.0, 1.0), H3Point(0.4, 0.2, 0.7)
    sv = quotient_green(identity_only, pole, q, 0)
    assert sv.value == pytest.approx(h3_green(pole, q), abs=1e-15)
    assert sv.tail_estimate == 0.0
    assert sv.shell_sums == (sv.value,)


@pytest.fixture(scope="module")
def quotient_setup(genus2_elements):
    pole = H3Point(0.1, 0.05, 0.9)
    q = H3Point(0.3, -0.2, 0.6)
    return genus2_elements, pole, q


def test_quotient_shells_decay(quotient_setup):
    elements, pole, q = quotient_setup
    sv = quotient_green(elements, pole, q, 6)
    sums = np.array(sv.shell_sums)
    assert np.all(sums > 0)
    assert np.all(np.diff(sums[1:]) < 0)
    # partial sums over shells increase (all terms positive)
    assert np.all(np.diff(np.cumsum(sums)) > 0)


def test_quotient_shell_sums_frozen(quotient_setup):
    # recorded with math.fsum over each shell (numpy 2.4, x86-64); every
    # shell sum is exactly rounded, so any exact summation gives these bits
    elements, pole, q = quotient_setup
    sv = quotient_green(elements, pole, q, 6)
    assert [s.hex() for s in sv.shell_sums] == [
        "0x1.c82935150dee6p-2", "0x1.010e93134b851p-6", "0x1.f1e8d2e8cbd00p-9",
        "0x1.a7bca977ee365p-10", "0x1.37292e161fd78p-11",
        "0x1.8f2eab0f9aba7p-14", "0x1.b448bfc7d453cp-16"]


def _sum_outcome(total, values):
    """The sum's hex, or the type of the error it raises."""
    try:
        return float(total(values)).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _certified(x):
    """The row-sum kernel on ``x`` with its size cut-off lifted, so the
    TwoSum tree and its certificate run even on a few terms."""
    with mock.patch.object(measure, "_ROW_SUM_MIN", 0):
        return _row_sums(x)


_signed = st.sampled_from([1.0, -1.0])
_wide = st.builds(lambda s, m: s * m, _signed, st.floats(1e-300, 1e300))
_tiny = (st.sampled_from([0.0, -0.0, 5e-324, -5e-324])
         | st.floats(-2.3e-308, 2.3e-308))
_cancelling = st.builds(lambda x, delta: [x, -x * (1.0 + delta)], _wide | _tiny,
                        st.floats(-1e-6, 1e-6) | st.sampled_from([2.0**-52, 2.0**-30]))
_finite_terms = st.lists(_wide.map(lambda x: [x]) | _tiny.map(lambda x: [x]) | _cancelling,
                         max_size=40).map(lambda parts: sum(parts, []))
_terms = st.tuples(
    _finite_terms, st.lists(st.sampled_from([math.inf, -math.inf, math.nan]), max_size=2)
).flatmap(lambda parts: st.permutations(parts[0] + parts[1]))


@settings(max_examples=400)
@given(_terms)
def test_exact_sum_is_fsum_bit_for_bit(terms):
    x = np.array(terms, dtype=float)
    assert _sum_outcome(_certified, x) == _sum_outcome(math.fsum, x.tolist())


def _rows_outcome(total, rows):
    """Every row sum's hex, or the type of the error the sum raises."""
    try:
        return [v.hex() for v in total(rows).tolist()]
    except (OverflowError, ValueError) as exc:
        return type(exc)


def _fsum_each(rows):
    return np.array([math.fsum(row) for row in rows.tolist()])


@settings(max_examples=150)
@given(st.lists(_terms, min_size=1, max_size=6))
def test_exact_sum_rows_are_fsum_bit_for_bit(drawn):
    # rows of equal length (zero-padded): as drawn, below the kernel's size
    # cut-off; certified; and tiled to at least the cut-off
    m = max(map(len, drawn))
    rows = np.array([row + [0.0] * (m - len(row)) for row in drawn]).reshape(len(drawn), m)
    tiled = np.tile(rows, (-(-measure._ROW_SUM_MIN // max(rows.size, 1)), 1))
    assert tiled.size >= measure._ROW_SUM_MIN or m == 0
    for x, total in ((rows, _row_sums), (rows, _certified), (tiled, _row_sums)):
        assert _rows_outcome(total, x) == _rows_outcome(_fsum_each, x)


@pytest.fixture
def fsum_calls(monkeypatch):
    """Count the ``math.fsum`` calls made while the test runs."""
    calls, fsum = [0], math.fsum

    def counting(values):
        calls[0] += 1
        return fsum(values)

    monkeypatch.setattr(math, "fsum", counting)
    return calls


@pytest.mark.parametrize("terms, expected, fallbacks", [
    ([2.5], "0x1.4000000000000p+1", 0),
    ([0.1] * 10, "0x1.0000000000000p+0", 0),
    ([1e100, 1.0, -1e100], "0x1.0000000000000p+0", 0),
    ([], "0x0.0p+0", 1),
    ([-0.0], "0x0.0p+0", 1),
    ([1.0, -1.0], "0x0.0p+0", 1),                          # an exact zero sum
    ([1e300, -1e300, 3.0, -3.0], "0x0.0p+0", 1),
    ([1.0, math.inf], "inf", 1),                           # a non-finite term
    ([math.nan, 1.0], "nan", 1),
    ([1.0, 2.0**-53, 2.0**-106], "0x1.0000000000001p+0", 1),  # a near tie
])
def test_exact_sum_certifies_or_falls_back(fsum_calls, terms, expected, fallbacks):
    x = np.array(terms, dtype=float)
    assert float(_certified(x)).hex() == expected  # math.fsum's result, checked by hand
    assert fsum_calls[0] == fallbacks


def test_exact_sum_fallback_raises_as_fsum(fsum_calls):
    with pytest.raises(OverflowError):
        _certified(np.array([1.5e308, 1.5e308]))
    with pytest.raises(ValueError):
        _certified(np.array([math.inf, -math.inf]))
    assert fsum_calls[0] == 2


@pytest.mark.parametrize("terms", [[1e308, 1e308, -1e308, 1.0],
                                   [1e308, -1e308, 1e308, 1e308, -1e308]])
def test_exact_sum_raises_where_fsum_overflows(terms):
    # the tree adds these without overflow and would certify 1e308, but
    # fsum's running sum passes the float range and raises
    with pytest.raises(OverflowError):
        math.fsum(terms)
    with pytest.raises(OverflowError):
        _certified(np.array(terms))


@pytest.mark.parametrize("pole, q", [
    (H3Point(0.1, 0.05, 0.9), H3Point(0.3, -0.2, 0.6)),
    (H3Point(-0.2, 0.25, 1.1), H3Point(0.0, 0.0, 0.7)),
    (H3Point(0.0, 0.0, 1.0), H3Point(0.25, 0.1, 1.2)),
])
def test_shell_sums_are_certified(genus2_elements, fsum_calls, pole, q):
    # every shell of a depth-6 series at or above the kernel's size cut-off
    # (shells 4-6, of 2,736, 19,096 and 133,288 terms) is certified:
    # math.fsum runs once per smaller shell and never as a fallback
    sums = greens._shell_sums(genus2_elements.matrices, genus2_elements.lengths, pole, q)
    small = np.bincount(genus2_elements.lengths) < measure._ROW_SUM_MIN
    assert len(sums) == 7 and small.sum() == 4 and fsum_calls[0] == small.sum()


def test_quotient_value_within_tail_of_deeper_truncation(quotient_setup):
    elements, pole, q = quotient_setup
    sv5 = quotient_green(elements, pole, q, 5)
    sv6 = quotient_green(elements, pole, q, 6)
    assert abs(sv6.value - sv5.value) <= sv5.tail_estimate
    assert sv6.value >= sv5.value  # positive terms only


def test_quotient_group_invariance(quotient_setup, genus2_generators):
    elements, pole, q = quotient_setup
    sv = quotient_green(elements, pole, q, 6)
    moved = genus2_generators[0].map.apply_h3(q)
    sv2 = quotient_green(elements, pole, moved, 6)
    assert abs(sv.value - sv2.value) <= 2 * max(sv.tail_estimate,
                                                sv2.tail_estimate)


def test_quotient_symmetry(quotient_setup):
    elements, pole, q = quotient_setup
    sv = quotient_green(elements, pole, q, 6)
    sv2 = quotient_green(elements, q, pole, 6)
    assert abs(sv.value - sv2.value) <= 2 * max(sv.tail_estimate,
                                                sv2.tail_estimate)


def test_quotient_pole_collision(quotient_setup):
    elements, pole, _ = quotient_setup
    with pytest.raises(PoleCollisionError):
        quotient_green(elements, pole, pole, 6)


def test_nondecaying_shells_flagged():
    # a fake "group" of small translations, words a1, a1.a1, a1.a1.a1: the
    # shells do not decay
    maps = [MobiusMap.identity()] + [MobiusMap.translation(0.01 * n) for n in (1, 2, 3)]
    fake = GroupElements([m.matrix() for m in maps], lengths=[0, 1, 2, 3],
                         parent=[-1, 0, 1, 2], letter=[-1, 0, 0, 0], names=["a1"])
    with pytest.raises(NonConvergentSeriesError):
        quotient_green(fake, H3Point(0, 0, 1), H3Point(5.0, 0, 1), 3)


def test_series_refuse_shells_beyond_the_record(genus2_generators, genus2_elements):
    shallow = enumerate_group(genus2_generators, 3)
    pole, q = H3Point(0.1, 0.05, 0.9), H3Point(0.3, -0.2, 0.6)
    assert quotient_green(shallow, pole, q, 3) == quotient_green(genus2_elements, pole, q, 3)
    with pytest.raises(ValueError, match="depth 3 < 6 shells"):
        quotient_green(shallow, pole, q, 6)
    with pytest.raises(ValueError, match="depth 3 < 6 shells"):
        potential_V(PointConfiguration((pole,), group=shallow), q)


def test_potential_empty_configuration():
    empty = PointConfiguration(points=())
    assert potential_V(empty, H3Point(1, 2, 3)) == 1.0


def test_potential_far_and_near():
    config = PointConfiguration(points=(H3Point(0, 0, 1),))
    far = H3Point(0, 0, 200.0)
    d = h3_distance(H3Point(0, 0, 1), far)
    assert potential_V(config, far) == pytest.approx(1.0, abs=2 * math.exp(-2 * d) + 1e-12)
    assert potential_V(config, far) > 1.0
    near = H3Point(0, 0, 1.001)
    ratio = (potential_V(config, near) - 1.0) / h3_green(H3Point(0, 0, 1), near)
    assert ratio == pytest.approx(1.0, abs=1e-12)


def test_potential_is_harmonic_off_poles():
    config = PointConfiguration(points=(H3Point(0, 0, 1), H3Point(0.5, 0, 2)))

    def v(q):
        return potential_V(config, q)

    for q in (H3Point(1.0, 0.5, 0.8), H3Point(-0.5, 0.1, 3.0)):
        r1 = laplace_beltrami(v, q, 0.02)
        r2 = laplace_beltrami(v, q, 0.01)
        assert math.log2(abs(r1) / abs(r2)) >= 1.8


def test_configuration_validation():
    with pytest.raises(ValueError):
        PointConfiguration(points=(H3Point(0, 0, 1), H3Point(0, 0, 1)))
    with pytest.raises(ValueError):
        PointConfiguration(points=(H3Point(0, 0, 1),), f=_measured(1.5))


def test_configuration_carries_one_record():
    pts = (H3Point(0, 0, 1), H3Point(1, 0, 1))
    with pytest.raises(ValueError, match="one row per point"):
        PointConfiguration(points=pts, f=_measured(0.5))
    record = _measured(0.5, 0.5, errors=(1e-9, 1e-9), converged=(True, False))
    config = PointConfiguration(points=pts, f=record)
    assert config.f is record
    assert config.to_obj(ell=1, total=1.0) == {
        "points": [[0.0, 0.0, 1.0], [1.0, 0.0, 1.0]], "f": [0.5, 0.5],
        "ell": 1, "sum": 1.0}
    res = quantization_sum(config)
    assert res.is_quantizable and not res.converged
    with pytest.raises(ValueError, match="no measure values"):
        quantization_sum(PointConfiguration(points=pts))


def test_quantization_k1_never():
    config = PointConfiguration(points=(H3Point(0, 0, 1),), f=_measured(0.5))
    res = quantization_sum(config)
    assert not res.is_quantizable
    # even exactly integer-valued sums fail the 0 < ell < k requirement
    config2 = PointConfiguration(points=(H3Point(0, 0, 1),),
                                 f=_measured(1.0 - 1e-12))
    assert not quantization_sum(config2).is_quantizable


def test_quantization_halfplane_half_levels():
    # two points at measure 1/2 each (the half-plane prototype level set)
    config = PointConfiguration(points=(H3Point(0, 0, 1), H3Point(1, 0, 1)),
                                f=_measured(0.5, 0.5))
    res = quantization_sum(config)
    assert res.is_quantizable and res.ell == 1
    assert res.total == pytest.approx(1.0, abs=1e-15)


def test_quantization_mixed_levels():
    config = PointConfiguration(
        points=(H3Point(0, 0, 1), H3Point(1, 0, 1), H3Point(0, 1, 1)),
        f=_measured(0.2, 0.3, 0.5))
    res = quantization_sum(config)
    assert res.is_quantizable and res.ell == 1


@given(st.permutations([0.13, 0.27, 0.35, 0.25]))
def test_quantization_sum_permutation_invariant(perm):
    pts = (H3Point(0, 0, 1), H3Point(1, 0, 1), H3Point(0, 1, 1),
           H3Point(1, 1, 1))
    base = quantization_sum(PointConfiguration(
        points=pts, f=_measured(0.13, 0.27, 0.35, 0.25)))
    permuted = quantization_sum(PointConfiguration(points=pts, f=_measured(*perm)))
    assert permuted.total == base.total  # fsum is exactly rounded


def test_find_quantizable_disk():
    config = find_quantizable(Disk(0, 1.0), 2, 1, CFG)
    res = quantization_sum(config)
    assert abs(res.total - 1.0) < 1e-8
    assert res.is_quantizable
    # the axis line solves the closed form 1/(1+z^2) = 1/2 at z = 1
    on_axis = [p for p in config.points if p.x == 0 and p.y == 0]
    assert on_axis and on_axis[0].z == pytest.approx(1.0, abs=1e-4)


def test_find_quantizable_dogbone(dogbone01):
    config = find_quantizable(dogbone01, 2, 1, CFG)
    res = quantization_sum(config)
    assert abs(res.total - 1.0) < 1e-8
    pts = config.points
    assert h3_distance(pts[0], pts[1]) > 0


def test_find_quantizable_builds_one_arrangement(arrangement_builds):
    find_quantizable(dogbone(0.1), 2, 1)
    assert arrangement_builds[0] == 1


def test_find_quantizable_keeps_its_bits(dogbone01):
    # recorded before the lines were solved in lockstep (numpy 2.4, x86-64)
    config = find_quantizable(dogbone01, 2, 1)
    assert [(p.x, p.y) for p in config.points] == [(0.0, 0.0), (0.0625, 0.0)]
    assert [p.z.hex() for p in config.points] == ["0x1.c60c17e8e2e20p-10",
                                                  "0x1.c60c1972d3a22p-10"]
    assert [v.hex() for v in config.f.values.tolist()] == ["0x1.000000001985cp-1"] * 2


def test_find_quantizable_evaluation_calls(measure_calls, dogbone01):
    # both lines' bracket and solver steps share one call per round (one line
    # alone takes 14 calls), plus one for the final values
    find_quantizable(dogbone01, 2, 1)
    assert measure_calls[0] <= 17


@pytest.mark.parametrize("region", [
    Difference(Disk(0, 1.0), Disk(0, 0.5)),
    Union(Disk(1.0, 0.25), Disk(-1.0, 0.25)),
    Disk(5.0, 0.5),
], ids=["annulus", "two-disks", "far-disk"])
def test_find_quantizable_seeds_away_from_the_origin(region):
    # no ring point about 0 lies in these regions; the seeds come from
    # just inside the boundary pieces
    config = find_quantizable(region, 3, 1, CFG)
    assert region.contains(np.array([p.foot for p in config.points])).all()
    result = quantization_sum(config)
    assert result.is_quantizable and result.converged
    assert abs(result.total - 1.0) <= 1e-10


def test_find_quantizable_on_a_square_of_half_planes(halfplane_square):
    config = find_quantizable(halfplane_square, 2, 1, CFG)
    result = quantization_sum(config)
    assert result.is_quantizable and result.converged


def test_find_quantizable_validation(dogbone01):
    with pytest.raises(ValueError):
        find_quantizable(dogbone01, 1, 1, CFG)
    with pytest.raises(ValueError):
        find_quantizable(dogbone01, 2, 2, CFG)
    with pytest.raises(ValueError):
        find_quantizable(dogbone01, 2, 0, CFG)


def test_find_quantizable_prescribed_levels():
    domain = Disk(0, 1.0)
    config = find_quantizable(domain, 3, 1, CFG, levels=(0.2, 0.3, 0.5))
    assert np.allclose(config.f.values, (0.2, 0.3, 0.5), atol=1e-8)
    res = quantization_sum(config)
    assert res.is_quantizable and res.ell == 1
    with pytest.raises(ValueError):
        find_quantizable(domain, 3, 1, CFG, levels=(0.2, 0.3))
    with pytest.raises(ValueError):
        find_quantizable(domain, 3, 1, CFG, levels=(0.2, 0.3, 0.6))
    with pytest.raises(ValueError):
        find_quantizable(domain, 2, 1, CFG, levels=(1.2, -0.2))


def test_potential_with_group_builds_no_elements(genus2_elements, monkeypatch):
    import tunnelvision.groups as groups_mod

    def refuse(*args):
        raise AssertionError("a GroupElement was built")

    monkeypatch.setattr(groups_mod, "GroupElement", refuse)
    poles = (H3Point(0.1, 0.05, 0.9), H3Point(-0.2, 0.1, 1.1))
    config = PointConfiguration(points=poles, group=genus2_elements)
    assert config.group is genus2_elements
    q = H3Point(0.3, -0.2, 0.6)
    expected = 1.0
    for p in poles:
        expected += quotient_green(genus2_elements, p, q, 5).value
    assert potential_V(config, q, shells=5) == expected

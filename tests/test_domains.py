import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from tunnelvision.domains import (Difference, Disk, HalfPlane, Intersection,
                                  SimplePolygon, Union, boundary_pieces,
                                  dogbone, domain_from_obj,
                                  reflection_symmetric)


def test_contains_basics(dogbone01):
    assert Disk(0, 1.0).contains(0j)
    assert dogbone01.contains(1.0 + 0j)
    assert not dogbone01.contains(2j)
    # inside the corridor: |Im| < eps^3 = 1e-3
    assert dogbone01.contains(0.5 + 0.0009j)
    assert not dogbone01.contains(0.5 + 0.0011j)


def test_contains_vectorized(dogbone01):
    z = np.array([1.0 + 0j, 2j, 0.5 + 0.0009j])
    assert list(dogbone01.contains(z)) == [True, False, True]


def test_dogbone_contains_origin(dogbone01):
    assert dogbone01.contains(0j)


def test_dogbone_symmetry_on_samples(dogbone01, rng):
    z = (rng.uniform(-1.3, 1.3, 10_000) + 1j * rng.uniform(-1.3, 1.3, 10_000))
    assert np.array_equal(dogbone01.contains(z), dogbone01.contains(-z))


def _dogbone_area_exact(eps):
    # two disks + corridor (strip through the unit disk), minus the two
    # disk/corridor overlaps, all in closed or 1D-quadrature form
    h = eps**3
    corridor = 2.0 * (h * math.sqrt(1.0 - h * h) + math.asin(h))

    def overlap_slice(y):
        lo = 1.0 - math.sqrt(1.0 / 16.0 - y * y)
        hi = math.sqrt(1.0 - y * y)  # unit circle clips the disk's right lobe
        return max(0.0, hi - lo)

    overlap = 2.0 * quad(overlap_slice, -h, h, epsabs=1e-14)[0]
    return 2.0 * math.pi / 16.0 + corridor - 2.0 * overlap


def test_dogbone_area_monte_carlo(dogbone01, rng):
    n = 4_000_000
    box = 1.3
    z = (rng.uniform(-box, box, n) + 1j * rng.uniform(-box, box, n))
    area = (2 * box) ** 2 * np.count_nonzero(dogbone01.contains(z)) / n
    exact = _dogbone_area_exact(0.1)
    assert area == pytest.approx(exact, rel=0.01)


def test_dogbone_spec_validation():
    with pytest.raises(ValueError):
        dogbone(0.0)
    with pytest.raises(ValueError):
        dogbone(0.5)
    # the corridor's half-planes are Im zeta > -eps^3 and Im zeta < eps^3
    below, above = dogbone(0.2).args[2].args[1:]
    assert below.normal == 1j and below.offset == pytest.approx(-0.008)
    assert above.normal == -1j and above.offset == pytest.approx(-0.008)


def test_dogbone_monotone_in_eps(rng):
    small, big = dogbone(0.05), dogbone(0.2)
    z = (rng.uniform(-1.3, 1.3, 20_000) + 1j * rng.uniform(-1.3, 1.3, 20_000))
    inside_small = small.contains(z)
    inside_big = big.contains(z)
    assert not np.any(inside_small & ~inside_big)


def test_reflection_symmetric():
    assert reflection_symmetric(Disk(0, 1.0))
    # dogbone_experiment relies on this without testing it
    for eps in (0.01, 0.05, 0.1, 0.2274, 0.3, 0.49):
        assert reflection_symmetric(dogbone(eps)), eps
    assert not reflection_symmetric(Disk(1.0, 0.25))


def test_hausdorff_basic(hausdorff_distance, rng):
    cloud = rng.normal(size=50) + 1j * rng.normal(size=50)
    assert hausdorff_distance(cloud, cloud) == 0.0
    assert hausdorff_distance(np.array([0j]), np.array([3 + 4j])) == 5.0


def test_hausdorff_concentric_circles(hausdorff_distance):
    t = np.linspace(0, 2 * np.pi, 10_000, endpoint=False)
    c1 = np.exp(1j * t)
    c2 = 1.1 * np.exp(1j * t)
    assert hausdorff_distance(c1, c2) == pytest.approx(0.1, abs=1e-5)


def test_hausdorff_empty_rejected(hausdorff_distance):
    with pytest.raises(ValueError):
        hausdorff_distance(np.array([]), np.array([1j]))


clouds = st.lists(st.complex_numbers(max_magnitude=10, allow_nan=False,
                                     allow_infinity=False),
                  min_size=1, max_size=20).map(np.array)


@given(clouds, clouds, clouds)
def test_hausdorff_triangle_inequality(hausdorff_distance, a, b, c):
    dab = hausdorff_distance(a, b)
    dbc = hausdorff_distance(b, c)
    dac = hausdorff_distance(a, c)
    assert dac <= dab + dbc + 1e-12


_leaves = st.one_of(
    st.builds(Disk,
              st.complex_numbers(max_magnitude=2, allow_nan=False,
                                 allow_infinity=False),
              st.floats(0.1, 2.0)),
    st.builds(HalfPlane,
              st.sampled_from([1 + 0j, 1j, -1j, (1 + 1j) / math.sqrt(2)]),
              st.floats(-1.0, 1.0)),
)
# shallow random trees: primitives and one level of boolean structure
_prims = st.one_of(
    _leaves,
    st.builds(Union, _leaves, _leaves),
    st.builds(Intersection, _leaves, _leaves),
    st.builds(Difference, _leaves, _leaves),
)
_points = st.lists(st.complex_numbers(max_magnitude=4, allow_nan=False,
                                      allow_infinity=False),
                   min_size=1, max_size=16).map(np.array)


@given(_prims, _prims, _points)
def test_de_morgan_on_trees(a, b, pts):
    # complements realized as differences from a fixed bounding disk
    big = Disk(0, 100.0)
    lhs = Difference(big, Union(a, b))
    rhs = Intersection(Difference(big, a), Difference(big, b))
    assert np.array_equal(lhs.contains(pts), rhs.contains(pts))
    lhs2 = Difference(big, Intersection(a, b))
    rhs2 = Union(Difference(big, a), Difference(big, b))
    assert np.array_equal(lhs2.contains(pts), rhs2.contains(pts))


def test_polygon_validation():
    square = SimplePolygon((0j, 1 + 0j, 1 + 1j, 1j))
    assert square.contains(0.5 + 0.5j)
    assert not square.contains(1.5 + 0.5j)
    with pytest.raises(ValueError):
        SimplePolygon((0j, 1 + 0j))
    with pytest.raises(ValueError):
        SimplePolygon((0j, 1 + 0j, 2 + 0j))  # collinear
    with pytest.raises(ValueError):
        SimplePolygon((0j, 1 + 1j, 1 + 0j, 1j))  # bowtie


def test_polygon_scaled_and_bounding():
    tri = SimplePolygon((0j, 2 + 0j, 1j))
    assert tri.bounding_radius == 2.0
    assert tri.scaled(2.0).contains(3 + 0j) == tri.contains(1.5 + 0j)


def test_json_roundtrip(dogbone01, rng):
    obj = dogbone01.to_obj()
    rebuilt = domain_from_obj(json.loads(json.dumps(obj)))
    z = (rng.uniform(-1.3, 1.3, 5000) + 1j * rng.uniform(-1.3, 1.3, 5000))
    assert np.array_equal(rebuilt.contains(z), dogbone01.contains(z))
    named = domain_from_obj({"dogbone": {"eps": 0.1}})
    assert np.array_equal(named.contains(z), dogbone01.contains(z))


def test_json_rejects_malformed():
    with pytest.raises(ValueError):
        domain_from_obj({"op": "xor", "args": []})
    with pytest.raises(ValueError):
        domain_from_obj({})
    with pytest.raises(ValueError):
        domain_from_obj({"blob": 1})
    with pytest.raises(ValueError):
        domain_from_obj({"op": "difference", "args": [{"dogbone": {"eps": 0.1}}]})


def test_domain_json_schema(dogbone01):
    jsonschema = pytest.importorskip("jsonschema")
    import tunnelvision
    import os
    schema_path = os.path.join(os.path.dirname(tunnelvision.__file__),
                               "schemas", "domain.schema.json")
    with open(schema_path) as fh:
        schema = json.load(fh)
    jsonschema.validate(dogbone01.to_obj(), schema)
    jsonschema.validate({"dogbone": {"eps": 0.1}}, schema)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate({"op": "xor", "args": []}, schema)


def test_boundary_points_clipped(dogbone01):
    pc = boundary_pieces(dogbone01)
    assert len(pc.arc_center) > 0
    # corridor-interior portions of the small circles are clipped away: the
    # arcs of Disk(+-1, 1/4) inside the corridor are not domain boundary, so
    # no kept arc passes through |Im zeta| < eps^3, |zeta| < 1
    t = np.linspace(0.0, 1.0, 1002)[1:-1, None]
    pts = pc.arc_center + pc.arc_radius * np.exp(1j * (pc.arc_start + t * pc.arc_sweep))
    assert not np.any((np.abs(pts.imag) < 1e-3) & (np.abs(pts) < 1.0))


def test_bounding_radii(dogbone01):
    assert dogbone01.bounding_radius == pytest.approx(1.25)
    assert math.isinf(HalfPlane(1j, 0.0).bounding_radius)
    assert Intersection(HalfPlane(1j, 0.0), Disk(0, 2.0)).bounding_radius == 2.0
    assert Difference(Disk(0, 1.0), HalfPlane(1j, 0.0)).bounding_radius == 1.0

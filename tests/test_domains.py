import copy
import json
import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from tunnelvision import domains
from tunnelvision.domains import (Difference, Disk, HalfPlane, Intersection,
                                  SimplePolygon, Union, boundary_pieces,
                                  dogbone, domain_from_obj)


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


@pytest.mark.parametrize("lam", [0.0, -1.0, -0.5, math.inf, -math.inf, math.nan])
def test_scaled_rejects_nonpositive_or_nonfinite_factors(lam, dogbone01):
    # a dilation needs lam > 0: lam = -1 would flip a half-plane's side,
    # and a disk's radius would turn negative
    domains = (Disk(0.5j, 1.0), HalfPlane(1j, 0.5),
               SimplePolygon((0j, 2 + 0j, 1j)), dogbone01)
    for domain in domains:
        with pytest.raises(ValueError,
                           match="^scale factor must be finite and positive"):
            domain.scaled(lam)


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


@pytest.mark.parametrize("build", [
    lambda: Disk(complex(math.inf, 0.0), 1.0),
    lambda: Disk(complex(0.0, math.nan), 1.0),
    lambda: Disk(0j, math.inf),
    lambda: Disk(0j, math.nan),
    lambda: HalfPlane(complex(math.inf, 1.0), 0.0),
    lambda: HalfPlane(1j, -math.inf),
    lambda: HalfPlane(1j, math.nan),
    lambda: SimplePolygon((0j, complex(math.inf, 0.0), 1j)),
    lambda: SimplePolygon((0j, 1 + 0j, complex(0.0, math.nan))),
])
def test_primitives_reject_nonfinite_parameters(build):
    with pytest.raises(ValueError, match="finite"):
        build()


@pytest.mark.parametrize("obj", [
    {"halfplane": {"n": [1e400, 1], "offset": 0}},
    {"disk": {"c": [0], "r": 1}},
    {"disk": {"c": [0, 0, 0], "r": 1}},
    {"disk": {"c": 0, "r": 1}},
    {"halfplane": {"n": [1], "offset": 0}},
    {"polygon": {"vertices": [[0, 0], [1], [0, 1]]}},
])
def test_json_rejects_nonfinite_or_malformed_coordinates(obj):
    with pytest.raises(ValueError):
        domain_from_obj(obj)


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


@pytest.mark.parametrize("build, name", [
    (lambda: Disk(0j, 1e77), "disk center"),
    (lambda: Disk(complex(6e75, 0.0), 6e75), "disk center"),
    (lambda: Disk(complex(1.5e308, 1.5e308), 1.0), "disk center"),  # |c| overflows
    (lambda: HalfPlane(complex(1.5e308, 1.5e308), 0.0), "finite nonzero normal"),
    (lambda: HalfPlane(1j, 1e300), "half-plane offset"),
    (lambda: HalfPlane(1j, -2e76), "half-plane offset"),
    (lambda: SimplePolygon((0j, 1e77 + 0j, 1j)), "polygon vertex"),
    # not "self-intersecting": the vertices are rejected before the edge test
    (lambda: SimplePolygon((complex(-1e308, -1e308), complex(1e308, -1e308),
                            complex(1e308, 1e308), complex(-1e308, 1e308))),
     "polygon vertex"),
])
def test_primitives_reject_lengths_beyond_the_boundary_sum(build, name):
    # the boundary sum multiplies up to four lengths; past 1e76 they overflow
    with pytest.raises(ValueError, match=name):
        build()


def test_primitives_accept_lengths_up_to_the_limit():
    assert Disk(complex(5e75, 0.0), 5e75).radius == 5e75
    assert HalfPlane(1j, -1e76).offset == -1e76
    assert len(SimplePolygon((0j, 1e76 + 0j, 1e76j)).vertices) == 3


_CACHED = [dogbone(0.1), Disk(0.3 - 0.2j, 0.5), HalfPlane(1j, 0.2),
           SimplePolygon((0, 1, 1 + 1j)), Difference(Disk(0, 1.0), Disk(0.4, 0.2))]


@pytest.mark.parametrize("domain", _CACHED, ids=repr)
def test_arrangement_is_built_once_and_kept_read_only(domain):
    before = (repr(domain), hash(domain), domain.to_obj(), pickle.dumps(domain))
    pc = boundary_pieces(domain)
    assert boundary_pieces(domain) is pc
    for name in ("seg_anchor", "seg_dir", "seg_lo", "seg_hi",
                 "arc_center", "arc_radius", "arc_start", "arc_sweep"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(pc, name)[...] = 0
    # the kept arrangement changes none of the domain's identity or wire forms
    assert (repr(domain), hash(domain), domain.to_obj(), pickle.dumps(domain)) == before
    for twin in (pickle.loads(pickle.dumps(domain)), copy.deepcopy(domain),
                 domain_from_obj(domain.to_obj())):
        assert twin == domain and hash(twin) == hash(domain)
        fresh = boundary_pieces(twin)
        assert fresh is not pc
        assert [getattr(fresh, f).tobytes() for f in ("seg_lo", "arc_sweep")] == \
            [getattr(pc, f).tobytes() for f in ("seg_lo", "arc_sweep")]


def test_verdict_and_zero_locus_share_one_arrangement(arrangement_builds):
    from tunnelvision import critical, forms
    d = dogbone(0.1)
    grid = critical.GridSpec.for_domain(d, 4)
    critical.almost_kahler_verdict(d, grid, threads=1)
    forms.zero_locus_report(d, grid, threads=1)
    assert arrangement_builds[0] == 1


def test_half_planes_crossing_beyond_the_boundary_sum_are_rejected():
    # in effect y > 0.5, but the two lines cross at x ~ 5e299: a corner no
    # evaluation can use.  Warnings are errors: one direction at infinity
    # wraps to 2 pi beside 0, and probing there would divide by zero.
    tilted = Intersection(HalfPlane(1j, 0.0), HalfPlane(complex(1e-300, 1.0), 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"boundary corner must stay within 1e\+76"):
            boundary_pieces(tilted)
        # the lines of near-parallel polygon edges cross as far out, off the
        # edges: no corner there, and the polygon is laid out
        square = SimplePolygon((0j, 1e70 + 0j, 1e70 + 1e70j,
                                complex(0.0, 1e70 * (1.0 + 2.0**-50))))
        assert len(boundary_pieces(square).seg_lo) == 4

import hashlib
import math

import numpy as np
import pytest

from tunnelvision.groups import (DedupCollisionError, GroupElement,
                                 GroupElements, _near_pairs, _shells,
                                 enumerate_group, limit_set_sample, min_genus,
                                 orbit_cloud, polygon_contains,
                                 regular_polygon, side_pairing_generators,
                                 surface_relator)
from tunnelvision.hyperbolic import DiskPoint, MobiusMap, disk_distance


def _triangle_side_from_angles(alpha, beta, gamma):
    """Side opposite gamma via the dual hyperbolic law of cosines."""
    return math.acosh((math.cos(alpha) * math.cos(beta) + math.cos(gamma))
                      / (math.sin(alpha) * math.sin(beta)))


def test_polygon_genus2_against_triangle_solver():
    # independent oracle: solve the (pi/2, pi/4g, pi/4g) right triangle for
    # its sides; the center-to-edge leg is opposite one pi/4g angle, the
    # center-to-vertex hypotenuse opposite the right angle
    g = 2
    a = math.pi / (4 * g)
    ya = _triangle_side_from_angles(math.pi / 2, a, a)
    big_r = _triangle_side_from_angles(a, a, math.pi / 2)
    poly = regular_polygon(g)
    assert poly.center_to_edge == pytest.approx(ya, abs=1e-12)
    assert poly.center_to_vertex == pytest.approx(big_r, abs=1e-12)
    # frozen oracle values
    assert poly.center_to_edge == pytest.approx(1.5285709194809982, abs=1e-12)
    assert poly.inradius_euclidean == pytest.approx(0.6435942529055827,
                                                    abs=1e-12)
    assert poly.interior_angle == pytest.approx(math.pi / 4, abs=1e-15)


def test_polygon_genus2_area_by_dissection():
    # 16 right triangles, each of angle defect pi - (pi/2 + pi/8 + pi/8)
    triangle_area = math.pi - (math.pi / 2 + math.pi / 8 + math.pi / 8)
    assert regular_polygon(2).area == pytest.approx(16 * triangle_area,
                                                    abs=1e-12)
    assert regular_polygon(2).area == pytest.approx(4 * math.pi, abs=1e-12)


@pytest.mark.parametrize("genus", [2, 3, 5, 10, 25, 50, 100])
def test_polygon_identities(genus):
    poly = regular_polygon(genus)
    assert poly.interior_angle == pytest.approx(math.pi / (2 * genus),
                                                abs=1e-15)
    assert poly.area == pytest.approx(4 * math.pi * (genus - 1), abs=1e-10)
    assert poly.center_to_vertex < 2 * poly.center_to_edge
    assert poly.inradius_euclidean == pytest.approx(
        math.tanh(poly.center_to_edge / 2), abs=1e-12)
    assert poly.inradius_euclidean > 1 - 1 / math.sqrt(genus - 1)


def test_polygon_genus10_inradius_bound():
    assert regular_polygon(10).inradius_euclidean > 2 / 3


def test_polygon_rejects_small_genus():
    with pytest.raises(ValueError):
        regular_polygon(1)


def test_min_genus():
    assert min_genus(0.5) == 5
    assert min_genus(np.nextafter(1.0, 0.0)) == 2
    assert min_genus(0.1) == 101
    assert regular_polygon(min_genus(0.1)).inradius_euclidean > 0.9
    with pytest.raises(ValueError):
        min_genus(0.0)
    with pytest.raises(ValueError):
        min_genus(1.0)


def test_side_pairings_satisfy_relator(genus2_generators):
    rel = surface_relator(genus2_generators).matrix()
    resid = min(np.abs(rel - np.eye(2)).max(), np.abs(rel + np.eye(2)).max())
    assert resid < 1e-8


@pytest.mark.parametrize("genus", [3, 4])
def test_relator_other_genera(genus):
    rel = surface_relator(side_pairing_generators(genus)).matrix()
    resid = min(np.abs(rel - np.eye(2)).max(), np.abs(rel + np.eye(2)).max())
    assert resid < 1e-8


def test_generators_translate_center_across_polygon(genus2_generators):
    ya = regular_polygon(2).center_to_edge
    for gen in genus2_generators:
        image = gen.map.apply_boundary(0j)
        assert disk_distance(DiskPoint(0j), DiskPoint(image)) == pytest.approx(
            2 * ya, abs=1e-8)


def test_generators_preserve_disk(genus2_generators, rng):
    for gen in genus2_generators:
        assert abs(gen.map.apply_boundary(0j)) < 1.0
        t = rng.uniform(0, 2 * math.pi, 64)
        on_circle = np.exp(1j * t)
        images = np.array([gen.map.apply_boundary(z) for z in on_circle])
        assert np.allclose(np.abs(images), 1.0, atol=1e-10)


def test_identity_not_among_generators(genus2_generators):
    eye = np.eye(2)
    for gen in genus2_generators:
        for mat in (gen.map.matrix(), gen.map.inverse().matrix()):
            assert min(np.abs(mat - eye).max(), np.abs(mat + eye).max()) > 0.1


def test_generators_move_polygon_off_itself(genus2_generators, rng):
    pts = []
    while len(pts) < 40:
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(z) < 1 and polygon_contains(2, z):
            pts.append(z)
    for gen in genus2_generators:
        for m in (gen.map, gen.map.inverse()):
            for z in pts:
                assert not polygon_contains(2, m.apply_boundary(z))


def test_group_elements_preserve_distance(genus2_elements, rng):
    # restrict to word length <= 4: deeper elements have matrix norms ~ e^9
    # and land points within 1e-5 of the circle, where the distance formula
    # amplifies representation error past the 1e-9 scale being asserted
    pool = [el for el in genus2_elements if el.word_length <= 4]
    sample = [pool[i] for i in rng.choice(len(pool), 25, replace=False)]
    for el in sample:
        z1 = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        z2 = complex(rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6))
        u, v = DiskPoint(z1), DiskPoint(z2)
        d0 = disk_distance(u, v)
        d1 = disk_distance(DiskPoint(el.map.apply_boundary(z1)),
                           DiskPoint(el.map.apply_boundary(z2)))
        assert d1 == pytest.approx(d0, abs=1e-9, rel=1e-9)


def test_enumeration_counts(genus2_generators, genus2_elements):
    assert [el.word for el in enumerate_group(genus2_generators, 0)] == [""]
    shell1 = enumerate_group(genus2_generators, 1)
    assert len(shell1) == 9  # identity + 2g generators and inverses, g = 2

    by_len = np.bincount(genus2_elements.lengths)
    # depth <= 3: free-group counts 8 * 7^(L-1), no relator coincidences
    # (the shortest relation has length 8)
    assert by_len[0] == 1
    assert by_len[1] == 8
    assert by_len[2] == 56
    assert by_len[3] == 392
    # at length 4 the commutator relation halves start to coincide: 8 drops
    assert by_len[4] == 2744 - 8


def test_enumeration_bruteforce_cross_check(genus2_generators):
    # independent brute force at length <= 2: compose all two-letter words,
    # freely reduce, and dedup by raw matrix distance
    mats = []
    letters = []
    for gen in genus2_generators:
        letters.append(gen.map.matrix())
        letters.append(gen.map.inverse().matrix())
    mats.append(np.eye(2, dtype=complex))
    mats.extend(letters)
    for i, a in enumerate(letters):
        for j, b in enumerate(letters):
            if j == i + 1 - 2 * (i % 2):  # b inverts a
                continue
            mats.append(a @ b)
    distinct = []
    for m in mats:
        if not any(min(np.abs(m - d).max(), np.abs(m + d).max()) < 1e-9
                   for d in distinct):
            distinct.append(m)
    assert len(distinct) == len(enumerate_group(genus2_generators, 2)) == 65


def test_shell_growth_is_geometric(genus2_elements):
    counts = np.bincount(genus2_elements.lengths)
    ratios = [counts[k + 1] / counts[k] for k in range(2, 5)]
    assert all(6.5 < r < 7.5 for r in ratios)


def test_orbit_cloud(genus2_generators, genus2_elements):
    identity_only = enumerate_group(genus2_generators, 0)
    base = DiskPoint(0.1 + 0.2j)
    assert orbit_cloud(identity_only, base) == pytest.approx([base.zeta])
    pts = orbit_cloud(genus2_elements[:3000], DiskPoint(0j))
    assert np.all(np.abs(pts) < 1.0)


def test_limit_set_approaches_circle(hausdorff_distance):
    circle = np.exp(2j * np.pi * np.linspace(0, 1, 20000, endpoint=False))
    dists = []
    for depth in (4, 5, 6):
        sample = limit_set_sample(2, depth)
        assert np.allclose(np.abs(sample), 1.0, atol=1e-12)
        dists.append(hausdorff_distance(sample, circle))
    assert dists[-1] < 0.05
    assert dists[0] > dists[1] > dists[2]


def test_dedup_collision_is_flagged(genus2_generators):
    # turning a1 by 1e-4 breaks the relator slightly: the two halves of each
    # length-8 relation land near each other at length 4, neither equal nor
    # separated, and the enumeration must refuse rather than pick one
    turned = MobiusMap.disk_rotation(1e-4) @ genus2_generators[0].map
    gens = [GroupElement(turned, "a1")] + genus2_generators[1:]
    assert len(enumerate_group(gens, 3)) == 1 + 8 + 56 + 392
    with pytest.raises(DedupCollisionError):
        enumerate_group(gens, 4)


def _growth_series(genus, n_terms):
    """Cannon's growth series of the genus-g surface group, by its recurrence.

    The series is (1 + 2x + ... + 2x^(2g-1) + x^2g) / (1 - (4g-2)(x + ... +
    x^(2g-1)) + x^2g) for the standard presentation.
    """
    m = 2 * genus
    num = [1] + [2] * (m - 1) + [1]
    den = [1] + [-(4 * genus - 2)] * (m - 1) + [1]
    out = []
    for n in range(n_terms):
        acc = num[n] if n < len(num) else 0
        acc -= sum(den[k] * out[n - k] for k in range(1, min(n, m) + 1))
        out.append(acc)
    return out


@pytest.mark.parametrize("genus, depth", [(2, 6), (3, 4)])
def test_shell_counts_match_growth_series(genus, depth, genus2_elements):
    elements = (genus2_elements if genus == 2 else
                enumerate_group(side_pairing_generators(genus), depth))
    counts = np.bincount([el.word_length for el in elements]).tolist()
    assert counts == _growth_series(genus, depth + 1)


def test_depth6_words_frozen(genus2_elements):
    # digest of the genus-2 depth-6 word list, newline-joined, as enumerated
    # by the registry-based implementation this one replaced
    assert len(genus2_elements) == 155577
    digest = hashlib.sha256(
        "\n".join(el.word for el in genus2_elements).encode()).hexdigest()
    assert digest == ("4234120306d017cf4ec2bf4a3bb07208"
                      "41164b850c70ee38b5db220d09f75e85")


def test_depth6_record_bits_frozen(genus2_elements):
    # digests of the depth-6 record's arrays and of limit_set_sample(2, 5),
    # recorded from the gathered-row products (numpy 2.4, x86-64): a reordered
    # or fused product changes these bits even where the words stay the same
    def digest(arr):
        return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()

    assert digest(genus2_elements.matrices) == (
        "a4836a1bfde82121b6118283cf84c20e68df91df16ea6e81135ca2e903734ed3")
    assert digest(genus2_elements.parent) == (
        "601cb47a421bccc852898db10b7b242893557e22cb4e92acaca5717782592593")
    assert digest(genus2_elements.letter) == (
        "0f111d6e970fb41e12b30a90e1c7ec6ecf17947fd048a5ca960bf0c7cd8e489f")
    assert digest(limit_set_sample(2, 5)) == (
        "3dddd8bf5817a01dc758b4e7a69ef5398dc32bbfa52d0b4ea221806c1b0da88f")


def test_enumerate_rejects_negative_length(genus2_generators):
    with pytest.raises(ValueError):
        enumerate_group(genus2_generators, -1)


def test_group_element_words(genus2_elements):
    words = {el.word for el in genus2_elements if el.word_length <= 1}
    assert words == {"", "a1", "A1", "b1", "B1", "a2", "A2", "b2", "B2"}
    two = next(el for el in genus2_elements if el.word_length == 2)
    assert "." in two.word


def test_group_elements_indexing(genus2_elements):
    assert isinstance(genus2_elements, GroupElements)
    n = len(genus2_elements)
    last = genus2_elements[-1]
    assert last == genus2_elements[n - 1]
    assert last.word_length == 6
    assert genus2_elements[0].word == "" and genus2_elements[1].word == "a1"
    assert genus2_elements[-n] == genus2_elements[0]
    with pytest.raises(IndexError):
        genus2_elements[n]
    with pytest.raises(IndexError):
        genus2_elements[-n - 1]
    prefix = genus2_elements[:3000]
    assert isinstance(prefix, GroupElements) and len(prefix) == 3000
    assert list(prefix) == [genus2_elements[i] for i in range(3000)]
    assert len(genus2_elements[:n + 10]) == n
    with pytest.raises(ValueError):
        genus2_elements[5:10]


def test_group_elements_iteration_matches_indexing(genus2_elements, rng):
    elements = list(genus2_elements)
    for i in rng.choice(len(elements), 200, replace=False):
        assert elements[i] == genus2_elements[i]
        assert elements[i].word_length == genus2_elements.lengths[i]


def test_record_matrices_follow_mobius_rule(genus2_generators, genus2_elements):
    raw = np.concatenate([np.eye(2, dtype=complex)[None]]
                         + [m for m, _, _ in _shells(genus2_generators, 6)])
    expected = np.array([MobiusMap(*row).matrix()
                         for row in raw.reshape(-1, 4).tolist()])
    mats = genus2_elements.matrices
    assert np.array_equal(mats.view(float), expected.view(float))
    for el, row in zip(genus2_elements[:100], mats):
        assert np.array_equal(el.map.matrix(), row)
    # unit determinant to working precision: the float determinant of a
    # depth-6 matrix (entries up to ~4800) carries a rounding error of
    # about eps (|a||d| + |b||c|), so 1e-12 absolute holds to depth 3 only
    a, b, c, d = mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1]
    err = np.abs(a * d - b * c - 1.0)
    size = np.abs(a) * np.abs(d) + np.abs(b) * np.abs(c)
    assert np.all(err <= 4 * np.finfo(float).eps * size)
    assert err[genus2_elements.lengths <= 3].max() <= 1e-12


def test_record_rows_survive_mobius_map(genus2_elements):
    # the renormalization is idempotent: a renormalized row is kept as it is
    mats = genus2_elements.matrices
    again = np.array([MobiusMap(*row).matrix()
                      for row in mats.reshape(-1, 4).tolist()])
    assert np.array_equal(again.view(float), mats.view(float))


def test_shell_products_match_matmul(genus2_generators):
    # entry-wise products against numpy's matmul of the same rows, to the
    # rounding of a two-term complex dot product
    letters = np.array([m for gen in genus2_generators
                        for m in (gen.map.matrix(), gen.map.inverse().matrix())])
    eps = np.finfo(float).eps
    prev = np.eye(2, dtype=complex)[None]
    for mats, parent, letter in _shells(genus2_generators, 6):
        rows, cols = prev[parent], letters[letter]
        err = np.abs(mats - rows @ cols)
        assert np.all(err <= 2 * eps * (np.abs(rows) @ np.abs(cols)))
        prev = mats


def _brute_force_pairs(keys, radius):
    i, j = np.triu_indices(len(keys), 1)
    near = np.abs(keys[i] - keys[j]) <= radius
    return set(zip(i[near].tolist(), j[near].tolist()))


def test_near_pairs_match_brute_force():
    rng = np.random.default_rng(2024)
    radius = 0.25
    up, down = np.nextafter(radius, 1.0), np.nextafter(radius, 0.0)
    tied = rng.choice(np.linspace(-1.0, 1.0, 9), 300) + 1j * rng.uniform(-1, 1, 300)
    loose = rng.uniform(-2, 2, 300) + 1j * rng.uniform(-2, 2, 300)
    base = rng.uniform(-1, 1, 20) + 1j * rng.uniform(-1, 1, 20)
    # partners within one ulp of the radius, along each axis and a diagonal
    edge = [b + step for b in base
            for r in (down, radius, up)
            for step in (r, -r, 1j * r, r * np.exp(0.25j * np.pi))]
    exact = [0j, 0.25 + 0j, 0.25j, complex(up, 0.0), complex(0.0, -up)]
    keys = np.concatenate([tied, loose, edge, exact])
    pairs = _near_pairs(keys, radius)
    assert pairs.shape[1] == 2 and np.all(pairs[:, 0] < pairs[:, 1])
    found = set(map(tuple, pairs.tolist()))
    assert len(found) == len(pairs)
    expected = _brute_force_pairs(keys, radius)
    assert found == expected
    n = len(keys) - len(exact)
    assert {(n, n + 1), (n, n + 2)} <= found and (n, n + 3) not in found
    for count in (0, 1):
        assert _near_pairs(keys[:count], radius).shape == (0, 2)


@pytest.mark.parametrize("direction", [1j, 1.0, np.exp(1.2j)],
                         ids=["vertical", "horizontal", "oblique"])
def test_near_pairs_on_a_line_match_brute_force(direction):
    # keys on a vertical line tie in their real parts; the sweep runs along
    # the imaginary part there and finds the same pairs
    rng = np.random.default_rng(7)
    keys = direction * (0.01 * np.arange(1500) + rng.uniform(0.0, 1e-3, 1500))
    keys = rng.permutation(np.concatenate([keys, keys[:40] + 1e-9]))
    pairs = _near_pairs(keys, 0.05)
    found = set(map(tuple, pairs.tolist()))
    assert len(found) == len(pairs)
    assert found == _brute_force_pairs(keys, 0.05)


@pytest.mark.parametrize("zeta", [0j, 0.1 + 0.2j, -0.5 + 0.3j])
def test_orbit_cloud_matches_apply_boundary(genus2_elements, zeta):
    pts = orbit_cloud(genus2_elements, DiskPoint(zeta))
    ref = np.array([el.map.apply_boundary(zeta) for el in genus2_elements])
    assert np.abs(pts - ref).max() <= 1e-15

import sys

import hypothesis
import numpy as np
import pytest

from tunnelvision import domains
from tunnelvision.domains import dogbone
from tunnelvision.groups import enumerate_group, side_pairing_generators
from tunnelvision.measure import QuadratureConfig

hypothesis.settings.register_profile(
    "default", max_examples=50, deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])
hypothesis.settings.load_profile("default")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240117)


@pytest.fixture(scope="session")
def quad_cfg():
    return QuadratureConfig(tolerance=1e-9)


@pytest.fixture(scope="session")
def dogbone01():
    return dogbone(0.1)


@pytest.fixture(scope="session")
def genus2_generators():
    return side_pairing_generators(2)


@pytest.fixture(scope="session")
def genus2_elements(genus2_generators):
    # depth 6 is the deepest any test needs; shallower tests slice by word length
    return enumerate_group(genus2_generators, 6)


@pytest.fixture
def arrangement_builds(monkeypatch):
    """Count the boundary arrangements built, in every module that imports the builder.

    Returns a one-element list holding the count; passing prepared pieces
    through ``boundary_pieces`` is not a build.
    """
    build = domains.boundary_pieces
    count = [0]

    def counting(domain):
        if not isinstance(domain, domains.BoundaryPieces):
            count[0] += 1
        return build(domain)

    for name, module in list(sys.modules.items()):
        if (name.startswith("tunnelvision")
                and getattr(module, "boundary_pieces", None) is build):
            monkeypatch.setattr(module, "boundary_pieces", counting)
    return count

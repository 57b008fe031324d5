import importlib.util
import os
import sys

import hypothesis
import numpy as np
import pytest

from tunnelvision import domains, measure
from tunnelvision.domains import dogbone
from tunnelvision.groups import enumerate_group, side_pairing_generators
from tunnelvision.measure import QuadratureConfig

hypothesis.settings.register_profile(
    "default", max_examples=50, deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])
hypothesis.settings.load_profile("default")


SCRIPTS = os.path.join(os.path.dirname(__file__), os.pardir, "scripts")


@pytest.fixture(scope="session")
def load_script():
    """Import a file of ``scripts/`` as a module: ``load_script("form_norm_grid")``."""
    def load(name):
        spec = importlib.util.spec_from_file_location(
            name, os.path.join(SCRIPTS, f"{name}.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    return load


@pytest.fixture(scope="session")
def hausdorff_distance(load_script):
    """The Hausdorff distance of ``scripts/limit_set_study.py``, its only home."""
    return load_script("limit_set_study").hausdorff_distance


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


def _count_calls(monkeypatch, fn):
    """Patch ``fn`` in every tunnelvision module that imports it to count calls.

    Returns a one-element list holding the number of calls.
    """
    count = [0]

    def counting(*args, **kwargs):
        count[0] += 1
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if (name.startswith("tunnelvision")
                and getattr(module, fn.__name__, None) is fn):
            monkeypatch.setattr(module, fn.__name__, counting)
    return count


@pytest.fixture
def arrangement_builds(monkeypatch):
    """Count the boundary arrangements built (``domains._arrangement`` calls).

    Returns a one-element list holding the count.  A domain object keeps
    its arrangement, so a test that counts builds starts from a fresh one.
    """
    return _count_calls(monkeypatch, domains._arrangement)


@pytest.fixture
def measure_calls(monkeypatch):
    """Count the ``measure_many`` calls, in every module that imports it.

    Returns a one-element list holding the count; the one-point wrappers
    count once per call, since they call ``measure_many`` themselves.
    """
    return _count_calls(monkeypatch, measure.measure_many)


import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

import tunnelvision


def test_reexports_are_in_module_all():
    # every name the package re-exports is public in the module it comes from
    with open(os.path.join(os.path.dirname(tunnelvision.__file__), "__init__.py")) as fh:
        tree = ast.parse(fh.read())
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"tunnelvision.{node.module}")
        missing = [a.name for a in node.names if a.name not in module.__all__]
        assert not missing, f"tunnelvision.{node.module}.__all__ lacks {missing}"


def test_module_all_names_exist():
    # a name left in __all__ after its definition is gone breaks ``import *``
    modules = [importlib.import_module(f"tunnelvision.{name[:-3]}")
               for name in sorted(os.listdir(os.path.dirname(tunnelvision.__file__)))
               if name.endswith(".py") and name != "__init__.py"]
    assert any(hasattr(module, "__all__") for module in modules)
    for module in modules:
        missing = [name for name in getattr(module, "__all__", ())
                   if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names {missing}"


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS",
                         "OMP_NUM_THREADS")


def _run_fresh(code, **environ):
    """Run ``code`` in a new interpreter whose BLAS thread variables are
    exactly ``environ``; return its last stdout line, parsed as JSON."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    env.update(environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


# Records every write to os.environ while the package loads.
IMPORT_PROBE = """
import json, os
{first}
writes = []
environ_type = type(os.environ)
setitem, delitem = environ_type.__setitem__, environ_type.__delitem__
environ_type.__setitem__ = lambda self, k, v: (writes.append(k), setitem(self, k, v))[1]
environ_type.__delitem__ = lambda self, k: (writes.append(k), delitem(self, k))[1]
before = dict(os.environ)
import tunnelvision
tasks = "/proc/self/task"
print(json.dumps({{
    "writes": writes,
    "environ_kept": dict(os.environ) == before,
    "threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
    "names": sorted(set(vars(tunnelvision)) & {{"numpy", "np", "_os", "_sys"}})}}))
"""


def test_first_numpy_import_loads_one_blas_thread():
    # the variable is set only while numpy loads: afterwards the environment
    # is the user's again, and the OpenBLAS pool keeps the size it loaded with
    got = _run_fresh(IMPORT_PROBE.format(first=""))
    assert got["writes"] == ["OPENBLAS_NUM_THREADS", "OPENBLAS_NUM_THREADS"]
    assert got["environ_kept"]
    if got["threads"] is not None:
        assert got["threads"] == 1
    assert got["names"] == []


@pytest.mark.parametrize("first, environ", [
    ("", {"OPENBLAS_NUM_THREADS": "2"}),
    ("", {"OMP_NUM_THREADS": "2"}),
    ("import numpy", {}),
], ids=["OPENBLAS_NUM_THREADS set", "OMP_NUM_THREADS set", "numpy first"])
def test_user_blas_setting_and_earlier_numpy_are_left_alone(first, environ):
    got = _run_fresh(IMPORT_PROBE.format(first=first), **environ)
    assert got["writes"] == []
    assert got["environ_kept"]
    assert got["names"] == []


# One digest over results whose BLAS calls could see the pool: the batched
# matmul of the hyperbolic norms, a verdict (3x3 determinants) and a Newton
# refinement (3x3 solves).
BLAS_DIGEST = """
import hashlib, json
from tunnelvision import critical
from tunnelvision.critical import GridSpec, almost_kahler_verdict, refine_critical_point_3d
from tunnelvision.domains import dogbone
from tunnelvision.hyperbolic import H3Point
from tunnelvision.measure import measure_many
from tunnelvision.runio import dump_json
region = dogbone(0.1)
grid = GridSpec.for_domain(region, 8)
points = grid.points()
record = measure_many(region, points, gradient=True)
digest = hashlib.sha256(critical._hyperbolic_norms(points, record.gradients).tobytes())
digest.update(dump_json(almost_kahler_verdict(region, grid).to_obj()).encode())
refined = refine_critical_point_3d(region, H3Point(0.01, -0.02, 0.95), 1e-6)
digest.update(dump_json(refined.to_obj()).encode())
print(json.dumps(digest.hexdigest()))
"""


def test_results_do_not_depend_on_the_blas_pool():
    assert _run_fresh(BLAS_DIGEST) == _run_fresh(BLAS_DIGEST,
                                                 OPENBLAS_NUM_THREADS="2")

"""What the span tracer in ``perfbench/`` relies on in the library.

The tracer wraps library functions by name when it installs, and the
benchmark's workloads pass ``threads=`` to the experiment functions; a rename
or a dropped keyword breaks the benchmark without breaking any other test.
"""

import os
import sys

import pytest

from tunnelvision import critical, forms, measure, runio
from tunnelvision.domains import dogbone
from tunnelvision.hyperbolic import H3Point
from tunnelvision.quadrature import QuadratureResult, adaptive_integrate

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


@pytest.fixture()
def tracer():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracing
    finally:
        sys.path.remove(PERFBENCH)
    t = tracing.Tracer()
    t.install()
    yield t
    t.uninstall()


def test_traced_workload_calls(tracer):
    # called through their modules, as the workloads do, so the wrappers run
    critical.dogbone_experiment(0.3, n_samples=16, threads=1)
    d = dogbone(0.3)
    grid = critical.GridSpec(x=(0.2, 0.3, 2), y=(0.1, 0.2, 2), z=(0.3, 3.0, 3))
    critical.almost_kahler_verdict(d, grid, threads=2)
    forms.zero_locus_report(d, grid, threads=2)
    # at tol 1e-4 the verdict's off-axis search runs Newton on dogbone(0.1)
    critical.almost_kahler_verdict(
        dogbone(0.1), critical.GridSpec(x=(-0.3, 0.3, 3), y=(-0.3, 0.3, 3),
                                        z=(0.05, 5.0, 6)),
        measure.QuadratureConfig(tolerance=1e-4))
    # the workloads no longer reach the ray integrand; the reference does
    measure.ray_quadrature(d, H3Point(0.0, 0.0, 1.0), 1e-9)
    names = {span[2] for span in tracer.spans}
    assert {"measure.integrand", "quadrature.adaptive_integrate"} <= names
    assert {"critical.dogbone_experiment", "critical.almost_kahler_verdict",
            "forms.zero_locus_report"} <= names
    # the verdict's axis search goes through the traced public function
    verdicts = {span[0] for span in tracer.spans
                if span[2] == "critical.almost_kahler_verdict"}
    assert any(span[2] == "critical.axis_critical_points" and span[1] in verdicts
               for span in tracer.spans)
    # and so does its Newton refinement, which the per-layer metrics count
    assert any(span[2] == "critical.refine_critical_point_3d" and span[1] in verdicts
               for span in tracer.spans)


def test_pmap_is_an_ordered_map():
    assert runio.pmap(lambda x: x * x, range(5), 2) == [0, 1, 4, 9, 16]


def test_adaptive_integrate_returns_one_result():
    res = adaptive_integrate(lambda x: x * x, 0.0, 1.0, 1e-12)
    assert isinstance(res, QuadratureResult)
    assert res.value[0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert isinstance(res.rounds, int) and isinstance(res.intervals, int)
    assert res.converged is True

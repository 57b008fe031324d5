"""Harmonic measure on hyperbolic 3-space for planar Jordan regions.

The library evaluates the Poisson extension of region indicators (the
"tunnel-vision" harmonic function of the region), profiles it along the
symmetry axis, finds and classifies its critical points (the dogbone
two-critical-point phenomenon in particular), constructs Fuchsian surface
groups from regular 4g-gons, sums Green's-function Poincare series and
quantization conditions, and checks the self-dual-form dictionary that
links critical points to zeros of the associated harmonic 2-form.

No kernel here uses BLAS threads: its largest BLAS calls are 3x3 solves,
determinants and products.  So when this package is the first to import
numpy, it loads OpenBLAS with one thread, which spares each process the
start of an idle worker pool.  OpenBLAS sizes its pool once, when it loads,
so the setting is removed again at once and the process environment stays
as the user had it.  A thread count the user set (``OPENBLAS_NUM_THREADS``,
``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS``) wins, and a numpy imported
earlier is left alone.
"""

import os as _os
import sys as _sys

if "numpy" not in _sys.modules and not any(
        name in _os.environ for name in
        ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]
    del numpy
del _os, _sys

from .runio import __version__

from .hyperbolic import (H3Point, DiskPoint, MobiusMap, INFINITY, h3_distance,
                         disk_distance, disk_to_h3, laplace_beltrami)
from .domains import (PlanarDomain, Disk, HalfPlane, SimplePolygon, Union,
                      Intersection, Difference, dogbone, boundary_pieces,
                      domain_from_obj)
from .measure import (QuadratureConfig, MeasureValue, MeasureValues,
                      poisson_kernel, harmonic_measure, measure_many,
                      measure_with_gradient, halfplane_closed_form,
                      disk_closed_form)
from .critical import (AxisProfile, CriticalPointReport, Verdict, GridSpec,
                       RefinementError, axis_profile, axis_critical_points,
                       dogbone_experiment, DogboneReport,
                       refine_critical_point_3d, almost_kahler_verdict)
from .groups import (PolygonData, GroupElement, GroupElements,
                     DedupCollisionError,
                     regular_polygon, min_genus, side_pairing_generators,
                     polygon_contains, surface_relator, enumerate_group,
                     orbit_cloud, limit_set_sample)
from .greens import (PointConfiguration, SeriesValue, QuantizationResult,
                     NonConvergentSeriesError, PoleCollisionError, h3_green,
                     green_flux, quotient_green, potential_V,
                     quantization_sum, find_quantizable)
from .forms import (ExpansionFit, ZeroLocusReport, sd_form_norm,
                    selfdual_algebra_check, boundary_expansion_check,
                    zero_locus_report, form_norm_grid)

"""Harmonic measure on hyperbolic 3-space for planar Jordan regions.

The library evaluates the Poisson extension of region indicators (the
"tunnel-vision" harmonic function of the region), profiles it along the
symmetry axis, finds and classifies its critical points (the dogbone
two-critical-point phenomenon in particular), constructs Fuchsian surface
groups from regular 4g-gons, sums Green's-function Poincare series and
quantization conditions, and checks the self-dual-form dictionary that
links critical points to zeros of the associated harmonic 2-form.
"""

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

"""The dictionary between harmonic functions and self-dual 2-forms.

On a circle bundle over a hyperbolic 3-manifold with metric
``g0 = V h + V^{-1} theta^2`` (V a positive harmonic potential, theta a
connection form with curvature the conjugate of dV), every invariant
self-dual harmonic 2-form is ``omega = psi ^ theta + V *psi`` for a closed
and co-closed 1-form psi on the base, and the pointwise norms satisfy

    |omega|_{g0} = sqrt(2) |psi|_h

identically -- independent of V and of theta.  In the setting computed here
psi is the differential of the harmonic measure, so omega vanishes exactly
at the measure's critical points, and since the measure approaches its
boundary values quadratically (first normal derivative zero, second one
not), the appropriately weighted norm stays bounded away from zero near the
boundary: zero-locus reports weight by a defining function u (the model
height by default, sqrt(f(1-f)) optionally) to exclude near-boundary
false positives.

The self-duality of the ansatz form is verified algebraically: the Hodge
star is built for the diagonal metric diag(V, V, V, 1/V) on the span of the
base coframe and theta, applied to omega in coordinates, and compared with
omega itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .critical import (GridSpec, RefinementError, _hyperbolic_norms,
                       refine_critical_point_3d)
from .domains import BoundaryPieces, PlanarDomain
from .hyperbolic import H3Point
from .measure import QuadratureConfig, measure_many, measure_with_gradient

__all__ = [
    "FormSample",
    "ExpansionFit",
    "ZeroLocusReport",
    "sd_form_norm",
    "selfdual_algebra_check",
    "boundary_expansion_check",
    "zero_locus_report",
    "form_norm_grid",
]

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class FormSample:
    """Norm sample of the self-dual form; omega = sqrt(2) * psi by construction."""

    base: H3Point
    omega_norm_g0: float
    psi_norm_h: float

    @staticmethod
    def from_psi_norm(base: H3Point, psi_norm_h: float) -> "FormSample":
        return FormSample(base=base, omega_norm_g0=SQRT2 * psi_norm_h,
                          psi_norm_h=psi_norm_h)

    def to_obj(self):
        return {
            "base": [self.base.x, self.base.y, self.base.z],
            "omega_norm_g0": self.omega_norm_g0,
            "psi_norm_h": self.psi_norm_h,
        }


def sd_form_norm(domain: PlanarDomain, p: H3Point,
                 quad: QuadratureConfig = QuadratureConfig()) -> FormSample:
    """Pointwise norm of the self-dual form attached to the measure of ``domain``.

    The norm does not depend on the point configuration fixing V, nor on the
    connection: the V-factors cancel between the coframe weights and the
    form's components.  The hyperbolic norm of the measure differential is
    z |grad f|.
    """
    _, grad, _ = measure_with_gradient(domain, p, quad)
    psi = _hyperbolic_norms(p.as_array()[None], grad[None])[0]
    return FormSample.from_psi_norm(p, float(psi))


# -- algebraic self-duality --------------------------------------------------------

_PAIRS = list(combinations(range(4), 2))  # coframe index pairs, coframe 3 = theta
_PAIR_INDEX = {p: i for i, p in enumerate(_PAIRS)}


def _perm_sign(perm) -> int:
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def _hodge_star_matrix(metric_diag) -> np.ndarray:
    """Hodge star on 2-forms for a diagonal metric on an oriented 4-space."""
    g = np.asarray(metric_diag, dtype=float)
    ginv = 1.0 / g
    vol = math.sqrt(float(np.prod(g)))
    star = np.zeros((6, 6))
    for (i, j) in _PAIRS:
        k, l = (m for m in range(4) if m not in (i, j))
        sign = _perm_sign((i, j, k, l))
        star[_PAIR_INDEX[(k, l)], _PAIR_INDEX[(i, j)]] = (
            vol * ginv[i] * ginv[j] * sign)
    return star


def _norm_2form(comp, metric_diag) -> float:
    ginv = 1.0 / np.asarray(metric_diag, dtype=float)
    sq = sum(ginv[i] * ginv[j] * comp[_PAIR_INDEX[(i, j)]] ** 2
             for (i, j) in _PAIRS)
    return math.sqrt(sq)


def selfdual_algebra_check(psi, V: float) -> float:
    """Residual of self-duality and of the norm identity for the ansatz form.

    ``psi`` holds the three components of a 1-form in an h-orthonormal base
    coframe.  The form psi ^ theta + V *psi is assembled in the coordinate
    coframe (e1, e2, e3, theta), the 4-dimensional Hodge star of the metric
    diag(V, V, V, 1/V) is applied, and the returned residual is the larger of
    ``max|star(omega) - omega|`` and ``| |omega| - sqrt(2)|psi| |``.
    """
    if not V > 0:
        raise ValueError("V must be positive")
    psi = np.asarray(psi, dtype=float)
    if psi.shape != (3,):
        raise ValueError("psi must be a 3-vector")
    comp = np.zeros(6)
    # psi ^ theta: components on e_i ^ theta
    comp[_PAIR_INDEX[(0, 3)]] += psi[0]
    comp[_PAIR_INDEX[(1, 3)]] += psi[1]
    comp[_PAIR_INDEX[(2, 3)]] += psi[2]
    # V * (3d star of psi): psi1 e2^e3 + psi2 e3^e1 + psi3 e1^e2
    comp[_PAIR_INDEX[(1, 2)]] += V * psi[0]
    comp[_PAIR_INDEX[(0, 2)]] -= V * psi[1]
    comp[_PAIR_INDEX[(0, 1)]] += V * psi[2]

    metric = (V, V, V, 1.0 / V)
    star = _hodge_star_matrix(metric)
    residual_sd = float(np.abs(star @ comp - comp).max())
    norm_identity = abs(_norm_2form(comp, metric)
                        - SQRT2 * float(np.linalg.norm(psi)))
    return max(residual_sd, norm_identity)


# -- boundary expansion -------------------------------------------------------------


@dataclass(frozen=True)
class ExpansionFit:
    """Log-log fit of the near-boundary residual: residual ~ coeff * z^exponent."""

    coefficient: float
    exponent: float
    residuals: tuple
    z_values: tuple
    flagged: bool

    def to_obj(self):
        return {
            "coefficient": self.coefficient,
            "exponent": self.exponent,
            "residuals": list(self.residuals),
            "z_values": list(self.z_values),
            "flagged": self.flagged,
        }


def boundary_expansion_check(domain: PlanarDomain, boundary_foot: complex,
                             side: str, z_list) -> ExpansionFit:
    """Fit the quadratic vanishing rate of the measure at the boundary plane.

    Over a foot point strictly inside the region fit ``1 - f`` against
    ``z^2``; strictly outside, fit ``f``.  The first normal derivative of the
    measure vanishes at the boundary while the second does not, so the fitted
    exponent should be 2 with a positive coefficient; a fit exponent far from
    2 is flagged (the foot is too close to the region's edge for the chosen
    heights).  Raises ValueError when an evaluation did not converge or a
    residual is not positive: neither can enter the fit.
    """
    if side not in ("inside", "outside"):
        raise ValueError("side must be 'inside' or 'outside'")
    zs = sorted(float(z) for z in z_list)
    if len(zs) < 2:
        raise ValueError("need at least two heights to fit")
    inside = bool(domain.contains(boundary_foot))
    if side == "inside" and not inside:
        raise ValueError("foot point is not inside the region")
    if side == "outside" and inside:
        raise ValueError("foot point is not outside the region")
    record = measure_many(domain, np.array([(boundary_foot.real, boundary_foot.imag, z)
                                            for z in zs]))
    if not record.converged.all():
        raise ValueError("a measure evaluation did not converge; "
                         "its residual cannot be fitted")
    residuals = (1.0 - record.values if side == "inside" else record.values).tolist()
    if any(r <= 0 for r in residuals):
        raise ValueError("nonpositive residual; heights outside the regime")
    slope, intercept = np.polyfit(np.log(zs), np.log(residuals), 1)
    return ExpansionFit(
        coefficient=float(math.exp(intercept)),
        exponent=float(slope),
        residuals=tuple(residuals),
        z_values=tuple(zs),
        flagged=bool(abs(slope - 2.0) > 0.25),
    )


# -- zero locus ---------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroLocusReport:
    samples: tuple              # sub-threshold FormSamples (u-weighted)
    clusters: tuple             # tuples of sample indices, grid-adjacent
    critical_points: tuple      # refined reports, one attempt per cluster
    cross_referenced: bool      # every cluster refined, every point clustered
                                # AND every scan evaluation converged
    nonconverged_evaluations: int
    threshold: float
    u_mode: str

    def to_obj(self):
        return {
            "samples": [s.to_obj() for s in self.samples],
            "clusters": [list(c) for c in self.clusters],
            "critical_points": [r.to_obj() for r in self.critical_points],
            "cross_referenced": self.cross_referenced,
            "nonconverged_evaluations": self.nonconverged_evaluations,
            "threshold": self.threshold,
            "u_mode": self.u_mode,
        }


def form_norm_grid(domain: PlanarDomain | BoundaryPieces, grid: GridSpec,
                   quad: QuadratureConfig = QuadratureConfig(),
                   u_mode: str = "height"):
    """The table (x, y, z, omega_norm_g0, weighted_norm) over a search grid.

    The flat table behind :func:`zero_locus_report`: an (n, 5) array, one
    row per grid point in grid order; ``weighted_norm`` is omega_norm / u^2
    for the chosen defining function, and inf where u = 0.  Returns
    ``(table, record)``, the second the grid's :class:`MeasureValues` (with
    gradients), whose ``converged`` flags the evaluations that did not
    converge.  ``domain`` may be the region's prepared boundary pieces.
    """
    if u_mode not in ("height", "sqrt_f"):
        raise ValueError("u_mode must be 'height' or 'sqrt_f'")
    pts = grid.points()
    record = measure_many(domain, pts, quad, gradient=True)
    omega = SQRT2 * _hyperbolic_norms(pts, record.gradients)
    if u_mode == "height":
        u = pts[:, 2]
    else:
        f = record.values
        u = np.sqrt(np.maximum(f * (1.0 - f), 0.0))
    # u^2 rounded as Python's u**2 (libm pow); u * u differs in the last bit
    # on about 0.1% of rows
    weighted = np.divide(omega, np.float_power(u, 2), out=np.full_like(omega, math.inf),
                         where=u > 0.0)
    return np.column_stack([pts, omega, weighted]), record


def _clusters(hits):
    """Grid-adjacent clusters of a boolean hit mask (nx, ny, nz), 6-neighbourhood.

    Returns tuples of hit numbers, counted in ``np.flatnonzero(hits)`` order:
    each cluster sorted, the clusters ordered by their first hit.  Every hit
    starts labelled with its flat index and takes the least label among its
    hit neighbours until no label changes, so a cluster's label is its
    least flat index.
    """
    no_hit, flat = hits.size, np.flatnonzero(hits)
    b = np.full(np.add(hits.shape, 2), no_hit)
    label = b[1:-1, 1:-1, 1:-1]  # a view of b, whose border stays no_hit
    label[hits] = flat
    while True:
        least = np.where(hits, np.minimum.reduce([
            label, b[2:, 1:-1, 1:-1], b[:-2, 1:-1, 1:-1], b[1:-1, 2:, 1:-1],
            b[1:-1, :-2, 1:-1], b[1:-1, 1:-1, 2:], b[1:-1, 1:-1, :-2]]), no_hit)
        if np.array_equal(least, label):
            break
        label[...] = least
    label = label[hits]
    return tuple(tuple(np.flatnonzero(label == first).tolist())
                 for first in flat[label == flat])


def zero_locus_report(domain: PlanarDomain, grid: GridSpec,
                      quad: QuadratureConfig = QuadratureConfig(),
                      threshold: float | None = None, u_mode: str = "height",
                      threads: int = 1) -> ZeroLocusReport:
    """Scan a grid for points where the u-weighted form norm nearly vanishes.

    The reported quantity is ``omega_norm / u^2``, which tends to a nonzero
    limit at the boundary plane (quadratic boundary expansion) but still
    vanishes at interior critical points, so near-boundary samples are
    excluded automatically.  Each sub-threshold cluster is refined by the
    Newton search; cross_referenced records whether clusters and refined
    critical points match up one-to-one, and is False when any scan
    evaluation did not converge.  ``threads`` is accepted and has no effect.
    """
    if threshold is None:
        threshold = 10.0 * quad.tolerance
    shape = tuple(len(axis) for axis in grid.axes())
    table, record = form_norm_grid(domain, grid, quad, u_mode)
    nonconverged = int((~record.converged).sum())
    hits = table[:, 4] < threshold
    samples = tuple(FormSample(H3Point(x, y, z), omega, omega / SQRT2)
                    for x, y, z, omega, _ in table[hits].tolist())
    clusters = _clusters(hits.reshape(shape))

    refined = []
    refined_ok = []
    refine_tol = 10.0 * quad.tolerance  # numerical-zero scale, not the
    for comp in clusters:               # cluster-selection threshold
        best = min(comp, key=lambda n: samples[n].omega_norm_g0)
        try:
            rep = refine_critical_point_3d(domain, samples[best].base,
                                           refine_tol, quad)
            refined.append(rep)
            refined_ok.append(True)
        except RefinementError:
            refined_ok.append(False)
    cross = (all(refined_ok) and len(refined) == len(clusters)
             and nonconverged == 0)
    return ZeroLocusReport(
        samples=samples,
        clusters=tuple(clusters),
        critical_points=tuple(refined),
        cross_referenced=bool(cross),
        nonconverged_evaluations=nonconverged,
        threshold=float(threshold),
        u_mode=u_mode,
    )

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
not), the norm weighted by f(1 - f) stays bounded away from zero near the
boundary plane, and (since f and z |grad f| both decay like z^-2) far above
the region too: zero-locus reports threshold |omega| / (f(1 - f)), which
excludes the near-boundary and far-field false positives.

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

from .critical import (SQRT2, GridSpec, _hyperbolic_norms, _zero_clusters,
                       form_norm_grid)
from .domains import BoundaryPieces, PlanarDomain, boundary_pieces
from .hyperbolic import H3Point
from .measure import QuadratureConfig, measure_many, measure_with_gradient

__all__ = [
    "ExpansionFit",
    "ZeroLocusReport",
    "sd_form_norm",
    "selfdual_algebra_check",
    "boundary_expansion_check",
    "zero_locus_report",
    "form_norm_grid",
]


def sd_form_norm(domain: PlanarDomain, p: H3Point,
                 quad: QuadratureConfig = QuadratureConfig()) -> float:
    """Pointwise norm |omega|_{g0} of the self-dual form of ``domain``'s measure.

    The norm does not depend on the point configuration fixing V, nor on the
    connection: the V-factors cancel between the coframe weights and the
    form's components.  It is sqrt(2) times the hyperbolic norm of the
    measure differential, z |grad f|.
    """
    _, grad, _ = measure_with_gradient(domain, p, quad)
    return float(SQRT2 * _hyperbolic_norms(p.as_array()[None], grad[None])[0])


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
    samples: tuple              # sub-threshold rows (x, y, z, |omega|, weighted)
    clusters: tuple             # tuples of sample indices, grid-adjacent
    critical_points: tuple      # refined reports, one attempt per cluster
    cross_referenced: bool      # every cluster refined, every scan converged
    nonconverged_evaluations: int
    threshold: float

    def to_obj(self):
        return {
            "samples": [list(s) for s in self.samples],
            "clusters": [list(c) for c in self.clusters],
            "critical_points": [r.to_obj() for r in self.critical_points],
            "cross_referenced": self.cross_referenced,
            "nonconverged_evaluations": self.nonconverged_evaluations,
            "threshold": self.threshold,
        }


def zero_locus_report(domain: PlanarDomain | BoundaryPieces, grid: GridSpec,
                      quad: QuadratureConfig = QuadratureConfig(),
                      threshold: float | None = None,
                      threads: int = 1) -> ZeroLocusReport:
    """Scan a grid for points where the weighted form norm nearly vanishes.

    The reported quantity is ``omega_norm / (f (1 - f))`` of
    :func:`form_norm_grid`, which stays near 2 sqrt(2) at the boundary plane
    and far above the region but vanishes at interior critical points, so
    near-boundary and far-field samples are excluded.  Each cluster of grid
    points below ``threshold`` (10 tol by default) seeds one Newton
    refinement at tolerance 10 tol, the off-axis search of
    :func:`~tunnelvision.critical.almost_kahler_verdict`; cross_referenced
    records whether every cluster refined, and is False when any scan
    evaluation did not converge.  ``domain`` may be the region's prepared
    boundary pieces.  ``threads`` has no effect.
    """
    if threshold is None:
        threshold = 10.0 * quad.tolerance
    _, record, rows, clusters, refined = _zero_clusters(
        boundary_pieces(domain), grid, quad, threshold)
    nonconverged = int((~record.converged).sum())
    return ZeroLocusReport(
        samples=tuple(map(tuple, rows)),
        clusters=clusters,
        critical_points=tuple(filter(None, refined)),
        cross_referenced=all(rep is not None for rep in refined) and nonconverged == 0,
        nonconverged_evaluations=nonconverged,
        threshold=float(threshold),
    )

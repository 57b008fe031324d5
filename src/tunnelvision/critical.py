"""Critical points of the harmonic measure lifted to hyperbolic 3-space.

For a bounded region invariant under ``zeta -> -zeta`` the measure is
invariant under the half-turn about the z-axis, so its gradient along the
axis is tangent to the axis: interior extrema of the axis restriction are
genuine critical points in 3-space.  The axis search does not take that
symmetry on trust: an extremum is conclusive only where the horizontal
gradient evaluated there is zero within its error bound.  The axis profile
tends to 1 as z -> 0 (when 0 is interior) and to 0 as z -> infinity, so a
profile that is not monotone produces critical points.  The dogbone region
(two small disks plus a thin corridor through 0) is the standard source of
such profiles: seen from height comparable to the corridor's reach the
region is nearly invisible, while from height ~ 1 both disks contribute, so
the profile dips and recovers before its final decay.

The almost-Kahler verdict reports whether a nowhere-zero self-dual harmonic
form can exist for the associated conformal class: any confirmed critical
point rules it out, while the negative outcome is search-relative evidence
("not found"), never a proof of nonexistence.  It takes any bounded region.
An axis report that is not conclusive seeds Newton, since on a region
without the symmetry a critical point lies near the axis extremum.
Critical points are the zeros of the self-dual form,
|omega| = sqrt(2) z |grad f|, so the verdict and the zero-locus report share
one off-axis search: scan a grid, threshold |omega| / (f (1 - f)), cluster
the hits, and run Newton once per cluster.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domains import PlanarDomain, boundary_pieces, dogbone
from .hyperbolic import H3Point
from .measure import MeasureValue, MeasureValues, QuadratureConfig, measure_many

__all__ = [
    "AxisProfile",
    "CriticalPointReport",
    "Verdict",
    "GridSpec",
    "RefinementError",
    "axis_profile",
    "axis_critical_points",
    "dogbone_experiment",
    "DogboneReport",
    "refine_critical_point_3d",
    "almost_kahler_verdict",
]

class RefinementError(RuntimeError):
    """Newton refinement diverged or left its search box."""


@dataclass(frozen=True)
class AxisProfile:
    """Samples of the measure along the vertical axis (0, 0, z).

    ``converged`` flags the samples whose error bound is within the tolerance.
    """

    z: np.ndarray
    f: np.ndarray
    err: np.ndarray
    converged: np.ndarray

    def __post_init__(self):
        if len(self.z) < 2 or np.any(np.diff(self.z) <= 0):
            raise ValueError("profile heights must be strictly increasing")
        if np.any((self.f < -self.err) | (self.f > 1.0 + self.err)):
            raise ValueError("profile values must lie in [0, 1] within error")

    def rows(self):
        return zip(self.z.tolist(), self.f.tolist(), self.err.tolist())


@dataclass(frozen=True)
class CriticalPointReport:
    location: H3Point
    f_value: float
    f_error: float
    grad_norm_hyperbolic: float
    classification: str  # "axis-min" | "axis-max" | "3d-refined"
    hessian_det: float
    tolerance: float
    conclusive: bool = True

    def to_obj(self):
        return {
            "location": [self.location.x, self.location.y, self.location.z],
            "f_value": self.f_value,
            "f_error": self.f_error,
            "grad_norm_hyperbolic": self.grad_norm_hyperbolic,
            "classification": self.classification,
            "hessian_det": self.hessian_det,
            "tolerance": self.tolerance,
            "conclusive": self.conclusive,
        }


@dataclass(frozen=True)
class Verdict:
    """The search's reports and coverage; ``status`` is read from the reports."""

    reports: tuple
    coverage: dict

    @property
    def status(self) -> str:
        """``critical_points_found`` when a report is conclusive, else
        ``no_critical_point_found``."""
        if any(r.conclusive for r in self.reports):
            return "critical_points_found"
        return "no_critical_point_found"

    def to_obj(self):
        return {
            "status": self.status,
            "reports": [r.to_obj() for r in self.reports],
            "coverage": self.coverage,
        }


@dataclass(frozen=True)
class GridSpec:
    """A rectangular search grid; z levels are log-spaced.

    Each axis is ``(lo, hi, count)`` with lo < hi and count >= 2, and the
    z range is positive.
    """

    x: tuple = (-0.9, 0.9, 20)
    y: tuple = (-0.9, 0.9, 20)
    z: tuple = (0.1, 10.0, 20)

    def __post_init__(self):
        for name in ("x", "y", "z"):
            lo, hi, n = getattr(self, name)
            if not lo < hi:
                raise ValueError(f"grid {name} range needs lo < hi, got {lo}, {hi}")
            if n < 2:
                raise ValueError(f"grid {name} needs at least 2 points, got {n}")
        if not self.z[0] > 0:
            raise ValueError(f"grid z range must be positive, got {self.z[0]}")

    @staticmethod
    def for_domain(domain: PlanarDomain, n: int = 20) -> "GridSpec":
        r = _bounded_radius(domain, "grid search")
        return GridSpec(x=(-r, r, n), y=(-r, r, n), z=(0.05 * r, 8.0 * r, n))

    def axes(self):
        xs = np.linspace(self.x[0], self.x[1], int(self.x[2]))
        ys = np.linspace(self.y[0], self.y[1], int(self.y[2]))
        zs = np.geomspace(self.z[0], self.z[1], int(self.z[2]))
        return xs, ys, zs

    def points(self) -> np.ndarray:
        """The grid points as an (n, 3) array of (x, y, z), x slowest and z fastest."""
        return np.stack([c.ravel() for c in np.meshgrid(*self.axes(), indexing="ij")],
                        axis=1)

    def to_obj(self):
        return {"x": list(self.x), "y": list(self.y), "z": list(self.z)}


def _bounded_radius(domain: PlanarDomain, search: str) -> float:
    """The region's ``radius``; ValueError naming the ``search`` if unbounded or empty."""
    r = boundary_pieces(domain).radius
    if math.isinf(r):
        raise ValueError(f"{search} requires a bounded domain")
    if r == 0.0:
        raise ValueError(f"{search} requires a non-empty domain; the region is empty")
    return r


def _axis_points(zs):
    """Points (0, 0, z) as an (n, 3) array."""
    zs = np.asarray(zs, dtype=float)
    return np.stack([np.zeros_like(zs), np.zeros_like(zs), zs], axis=1)


def _hyperbolic_norms(points, g):
    """z |g| per row of points (n, 3) and gradients g (n, 3).

    The same bits as ``z * float(np.linalg.norm(g))`` row by row: the
    squared norm is a batched matmul, since a sum of squares or ``einsum``
    rounds differently from ``np.linalg.norm`` on some rows.
    """
    return points[:, 2] * np.sqrt((g[:, None, :] @ g[:, :, None])[:, 0, 0])


def axis_profile(domain: PlanarDomain, z_min: float, z_max: float, n: int,
                 config: QuadratureConfig = QuadratureConfig()) -> AxisProfile:
    """Log-spaced samples of the measure along the axis through 0."""
    if not 0.0 < z_min < z_max:
        raise ValueError("need 0 < z_min < z_max")
    if n < 2:
        raise ValueError("need at least two samples")
    zs = np.geomspace(z_min, z_max, n)
    record = measure_many(domain, _axis_points(zs), config)
    return AxisProfile(z=zs, f=record.values, err=record.errors,
                       converged=record.converged)


def _bracketed_roots(g, brackets, xtol):
    """Zeros of ``g`` in every bracket by Illinois false position, in lockstep.

    Each bracket is ``(a, b, g(a), g(b))`` with values of opposite signs.
    Every round takes one step on each bracket still wider than ``xtol`` and
    asks for all those values at once: ``g(which, xs)`` returns the values
    at ``xs``, where ``xs[n]`` is a step of bracket ``which[n]`` (brackets
    may hold zeros of different functions).  Returns, per bracket, the
    midpoint of a bracket no wider than ``xtol``, or a step where ``g`` is
    exactly zero.  b is the latest iterate, and the value at the other end
    is halved each time that end is kept (Dowell & Jarratt, BIT 1971); steps
    stay ``xtol / 2`` clear of the ends.  ``xtol`` is raised to four ulps of
    each bracket's ends, so every step shrinks the bracket even when the
    requested width is below the float spacing there.  A bracket's iterates
    are the same as when it is solved alone.
    """
    state = [(a, b, ga, gb, max(xtol, 4.0 * math.ulp(max(abs(a), abs(b)))))
             for a, b, ga, gb in brackets]
    roots = [None] * len(state)
    while True:
        which, steps = [], []
        for n, (a, b, ga, gb, tol) in enumerate(state):
            if roots[n] is not None:
                continue
            if abs(b - a) <= tol:
                roots[n] = 0.5 * (a + b)
                continue
            lo, hi = min(a, b), max(a, b)
            which.append(n)
            steps.append(min(max(b - gb * (b - a) / (gb - ga), lo + 0.5 * tol),
                             hi - 0.5 * tol))
        if not which:
            return roots
        for n, c, gc in zip(which, steps, g(which, steps)):
            a, b, ga, gb, tol = state[n]
            if gc == 0.0:
                roots[n] = c
                continue
            if (gc < 0.0) != (gb < 0.0):
                a, ga = b, gb
            else:
                ga *= 0.5
            state[n] = (a, c, ga, gc, tol)


# a point and its Hessian stencil, in steps of h: the centre, then +-e_x, +-e_y, +-e_z
_STENCIL = np.array([[0, 0, 0], [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                     [0, 0, 1], [0, 0, -1]], dtype=float)


def _with_hessians(domain, points, config):
    """Measures, gradients and coordinate Hessians at k points (k, 3), in one evaluation.

    Each point is evaluated together with its Hessian stencil, 7 rows per
    point, with step h = max(1e-4, 2e-3 z); the Hessian is the symmetrized
    central difference of the stencil's gradients.  Returns the k points'
    :class:`MeasureValues` record, with gradients, and their Hessians
    (k, 3, 3).
    """
    points = np.asarray(points, dtype=float)
    h = np.maximum(1e-4, 2e-3 * points[:, 2])[:, None, None]
    record = measure_many(domain, (points[:, None, :] + h * _STENCIL).reshape(-1, 3),
                          config, gradient=True)
    grads = record.gradients.reshape(-1, 7, 3)
    centres = MeasureValues(record.values[0::7], record.errors[0::7],
                            record.converged[0::7], grads[:, 0],
                            record.gradient_errors[0::7])
    # row k of the difference is the gradient's derivative along e_k
    H = (grads[:, 1::2] - grads[:, 2::2]) / (2.0 * h)
    return centres, 0.5 * (H + H.transpose(0, 2, 1))


def axis_critical_points(profile: AxisProfile, domain: PlanarDomain,
                         refine_tol: float = 1e-6,
                         config: QuadratureConfig = QuadratureConfig()):
    """Locate and classify interior extrema of the axis profile.

    A sign change of the discrete derivative of the profile between z[i] and
    z[i+2] brackets an extremum.  The analytic derivative df/dz at the two
    bracket ends (one batched evaluation for all brackets) seeds a bracketed
    root solve of df/dz to within ``refine_tol``; the brackets are solved in
    lockstep, one evaluation per round.  When the two end slopes do not have
    the signs the bracket's type expects (df/dz > 0 then < 0 around a
    maximum, < 0 then > 0 around a minimum) there is nothing to solve: the
    middle sample z[i+1] is reported, with the bracket's half-width
    max(z[i+1] - z[i], z[i+2] - z[i+1]) as its tolerance.  Every report's
    value, gradient and Hessian stencil come from one more evaluation.  An
    extremum is ``conclusive`` when both bracket-end evaluations converged
    and their slopes have the expected opposite signs beyond their error
    bars, which proves a zero of df/dz inside the bracket, and when df/dx
    and df/dy at the report lie within their error bounds.  The last test
    holds on a region invariant under ``zeta -> -zeta``; on any other
    region the axis is not a gradient line, and its extrema are reported
    but not conclusive.
    """
    _bounded_radius(domain, "axis search")
    z = profile.z
    df = np.diff(profile.f)
    # brackets z[i] .. z[i+2], where the discrete derivative changes sign
    i = np.nonzero((df[:-1] != 0.0) & (df[:-1] * df[1:] < 0.0))[0]
    if not len(i):
        return []
    # df/dz at both ends of every bracket, in one batched evaluation
    ends = measure_many(domain, _axis_points(np.stack([z[i], z[i + 2]], axis=1).ravel()),
                        config, gradient=True)
    slope = ends.gradients[:, 2].reshape(-1, 2)
    slope_err = ends.gradient_errors[:, 2].reshape(-1, 2)
    converged = ends.converged.reshape(-1, 2)

    def dfdz(_, zs):
        return measure_many(domain, _axis_points(zs), config,
                            gradient=True).gradients[:, 2].tolist()

    is_max = df[i] > 0.0
    # f rises into a max and falls into a min: oriented slopes are + then -
    oriented = np.where(is_max, 1.0, -1.0)[:, None] * slope
    conclusive = (converged.all(axis=1) & (oriented[:, 0] > slope_err[:, 0])
                  & (oriented[:, 1] < -slope_err[:, 1]))
    solvable = (oriented[:, 0] > 0.0) & (oriented[:, 1] < 0.0)
    roots = iter(_bracketed_roots(
        dfdz, [(z[j], z[j + 2], ga, gb)
               for j, (ga, gb), ok in zip(i, slope, solvable) if ok], refine_tol))
    z_star = [next(roots) if ok else z[j + 1] for j, ok in zip(i, solvable)]
    tolerance = np.where(solvable, refine_tol,
                         np.maximum(z[i + 1] - z[i], z[i + 2] - z[i + 1]))

    # every report's value, gradient and Hessian, in one evaluation
    at = _axis_points(z_star)
    centres, hessians = _with_hessians(domain, at, config)
    norms = _hyperbolic_norms(at, centres.gradients)
    conclusive &= np.all(np.abs(centres.gradients[:, :2])
                         <= centres.gradient_errors[:, :2], axis=1)
    return [CriticalPointReport(
                location=H3Point(0.0, 0.0, z_star[n]),
                f_value=float(centres.values[n]),
                f_error=float(centres.errors[n]),
                grad_norm_hyperbolic=float(norms[n]),
                classification="axis-max" if is_max[n] else "axis-min",
                hessian_det=float(np.linalg.det(hessians[n])),
                tolerance=float(tolerance[n]),
                conclusive=bool(conclusive[n]))
            for n in range(len(at))]


@dataclass(frozen=True)
class DogboneReport:
    epsilon: float
    f_at_eps: MeasureValue
    f_at_one: MeasureValue
    inequality_holds: bool
    inconclusive: bool
    critical_points: tuple
    window: tuple
    samples: int

    def to_obj(self):
        return {
            "epsilon": self.epsilon,
            "f_at_eps": {"value": self.f_at_eps.value, "error": self.f_at_eps.error},
            "f_at_one": {"value": self.f_at_one.value, "error": self.f_at_one.error},
            "inequality_holds": self.inequality_holds,
            "inconclusive": self.inconclusive,
            "critical_points": [r.to_obj() for r in self.critical_points],
            "window": list(self.window),
            "samples": self.samples,
        }


def dogbone_experiment(epsilon: float,
                       config: QuadratureConfig = QuadratureConfig(),
                       n_samples: int = 200, refine_tol: float = 1e-6,
                       threads: int = 1):
    """Run the dogbone experiment at corridor parameter ``epsilon``.

    Computes the measure at heights epsilon and 1 on the axis with error
    estimates, decides the strict inequality f(0,0,eps) < f(0,0,1) only when
    the error bars do not overlap, and searches the axis window
    [epsilon^2, 10] for critical points.  The report is ``inconclusive``
    when the error bars overlap or when f(eps), f(1) or any profile sample
    did not converge.  Returns a DogboneReport together with the axis
    profile used for the search.  ``threads`` is accepted and has no effect.
    """
    domain = dogbone(epsilon)
    f_eps, f_one = measure_many(domain, _axis_points([epsilon, 1.0]), config)
    holds = f_eps.value + f_eps.error < f_one.value - f_one.error
    separated = holds or f_one.value + f_one.error < f_eps.value - f_eps.error
    window = (epsilon**2, 10.0)
    profile = axis_profile(domain, window[0], window[1], n_samples, config)
    cps = axis_critical_points(profile, domain, refine_tol, config)
    report = DogboneReport(
        epsilon=epsilon,
        f_at_eps=f_eps,
        f_at_one=f_one,
        inequality_holds=bool(holds),
        inconclusive=not (separated and f_eps.converged and f_one.converged
                          and profile.converged.all()),
        critical_points=tuple(cps),
        window=window,
        samples=n_samples,
    )
    return report, profile


def refine_critical_point_3d(domain: PlanarDomain, p0: H3Point,
                             tol: float, config: QuadratureConfig = QuadratureConfig(),
                             max_steps: int = 30) -> CriticalPointReport:
    """Damped Newton refinement of the gradient zero near ``p0``.

    Works in Euclidean coordinates with the hyperbolic gradient norm
    ``z * |grad f|`` as the descent functional (critical points agree in
    both metrics).  Converged means that norm is below ``tol`` and the
    Newton step from the iterate has hyperbolic length ``|step| / z`` below
    ``tol``, so a point where the gradient is merely small (near the plane,
    say) is not returned unmoved.  Raises RefinementError on divergence or
    when the iterate leaves the box |x + iy| < 2 R, p0.z / 64 < z < 64 p0.z,
    where R is the ``extent`` of the domain's boundary pieces.
    """
    xy_max = 2.0 * boundary_pieces(domain).extent
    z_lo, z_hi = p0.z / 64.0, p0.z * 64.0

    def evaluate(point):
        """Measure, gradient, Hessian and z |grad f| at point (x, y, z), in one call."""
        at = point[None]
        centres, hessians = _with_hessians(domain, at, config)
        norm = float(_hyperbolic_norms(at, centres.gradients)[0])
        return centres[0], centres.gradients[0], hessians[0], norm

    p = p0
    mv, grad, H, norm = evaluate(p.as_array())
    for _ in range(max_steps):
        try:
            step = np.linalg.solve(H, -grad)
        except np.linalg.LinAlgError as exc:
            raise RefinementError(f"singular Hessian at {p}") from exc
        if norm < tol and float(np.linalg.norm(step)) < tol * p.z:
            return CriticalPointReport(
                location=p, f_value=mv.value, f_error=mv.error,
                grad_norm_hyperbolic=norm, classification="3d-refined",
                hessian_det=float(np.linalg.det(H)), tolerance=tol,
            )
        lam = 1.0
        improved = False
        while lam > 1.0 / 64.0:
            cand = p.as_array() + lam * step
            if abs(complex(cand[0], cand[1])) > xy_max or not z_lo < cand[2] < z_hi:
                raise RefinementError(f"left the search box at {cand}")
            q = H3Point(*cand)
            mv2, grad2, H2, norm2 = evaluate(cand)
            if norm2 < norm * (1.0 - 0.25 * lam) or norm2 < tol:
                p, mv, grad, H, norm = q, mv2, grad2, H2, norm2
                improved = True
                break
            lam *= 0.5
        if not improved:
            raise RefinementError(
                f"no descent step from {p} (gradient norm {norm:.3e})")
    raise RefinementError(f"did not converge in {max_steps} steps "
                          f"(gradient norm {norm:.3e})")


SQRT2 = math.sqrt(2.0)


def form_norm_grid(domain: PlanarDomain, grid: GridSpec,
                   quad: QuadratureConfig = QuadratureConfig()):
    """The table (x, y, z, omega_norm_g0, weighted_norm) over a search grid.

    The flat table behind the off-axis search: an (n, 5) array, one row per
    grid point in grid order; ``weighted_norm`` is omega_norm / (f (1 - f)),
    and inf where f (1 - f) = 0.  Near the plane and far above the region
    f (1 - f) vanishes at the same rate as omega_norm, so the weighted norm
    stays near 2 sqrt(2) there and small values mark interior zeros.
    Returns ``(table, record)``, the second the grid's :class:`MeasureValues`
    (with gradients), whose ``converged`` flags the evaluations that did not
    converge.
    """
    pts = grid.points()
    record = measure_many(domain, pts, quad, gradient=True)
    omega = SQRT2 * _hyperbolic_norms(pts, record.gradients)
    u = record.values * (1.0 - record.values)
    weighted = np.divide(omega, u, out=np.full_like(omega, math.inf), where=u > 0.0)
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


def _zero_clusters(domain: PlanarDomain, grid: GridSpec, config: QuadratureConfig,
                   threshold: float):
    """The off-axis search: scan, threshold, cluster, one Newton per cluster.

    Hits are the rows of :func:`form_norm_grid` with weighted norm below
    ``threshold``; each cluster's hit of least form norm seeds Newton at
    tolerance 10 tol.  Returns the table, its record, the hit rows (lists),
    the clusters and per cluster its report, or None where Newton failed.
    """
    table, record = form_norm_grid(domain, grid, config)
    hits = table[:, 4] < threshold
    clusters = _clusters(hits.reshape([len(axis) for axis in grid.axes()]))
    rows = table[hits].tolist()
    seeds = [rows[min(comp, key=lambda n: rows[n][3])] for comp in clusters]
    refined = [_newton(domain, H3Point(*seed[:3]), config) for seed in seeds]
    return table, record, rows, clusters, refined


def _newton(domain, seed: H3Point, config) -> CriticalPointReport | None:
    """The search's Newton run from ``seed``, at tolerance 10 tol; None where it fails."""
    try:
        return refine_critical_point_3d(domain, seed, 10.0 * config.tolerance, config)
    except RefinementError:
        return None


def almost_kahler_verdict(domain: PlanarDomain, search: GridSpec | None = None,
                          config: QuadratureConfig = QuadratureConfig(),
                          threads: int = 1) -> Verdict:
    """Search for critical points and report the almost-Kahler consequence.

    The search runs on any bounded, non-empty region (by the ``radius`` of
    its boundary pieces), in two parts.
    The axis search (:func:`axis_critical_points` on a 200-sample profile
    over the grid's z range) reports the extrema of f on the axis; each
    report that is not conclusive seeds Newton at tolerance 10 tol and is
    replaced by the refined point, or kept as it is when Newton fails.  The
    off-axis search is that of :func:`~tunnelvision.forms.zero_locus_report`
    at its defaults: one Newton run per cluster of grid points where
    sqrt(2) z |grad f| / (f (1 - f)) is below the threshold 10 tol, each
    refined point kept unless it repeats an earlier report.  Any conclusive
    report means the associated conformal class is not representable by an
    almost-Kahler metric.  ``no_critical_point_found`` is explicitly
    search-relative: it is evidence at the coverage recorded in the verdict,
    not a proof that none exist.  ``coverage`` holds the grid, its point
    count, its least z |grad f|, that threshold, the tolerance, the number
    of profile and scan evaluations that did not converge, and a note.
    ``threads`` has no effect.
    """
    _bounded_radius(domain, "verdict search")
    if search is None:
        search = GridSpec.for_domain(domain)
    threshold = 10.0 * config.tolerance

    profile = axis_profile(domain, search.z[0], search.z[1], 200, config)
    reports = [rep if rep.conclusive else _newton(domain, rep.location, config) or rep
               for rep in axis_critical_points(profile, domain, 1e-6, config)]

    table, scan, _, _, refined = _zero_clusters(domain, search, config, threshold)
    for new in filter(None, refined):
        if not any(_close(new.location, old.location) for old in reports):
            reports.append(new)

    coverage = {
        "grid": search.to_obj(),
        "grid_points": len(table),
        "min_grid_gradient_norm": float(
            _hyperbolic_norms(table[:, :3], scan.gradients).min()),
        "threshold": threshold,
        "tolerance": config.tolerance,
        "nonconverged_evaluations": int((~profile.converged).sum()
                                        + (~scan.converged).sum()),
        "note": "no_critical_point_found is relative to this coverage",
    }
    return Verdict(reports=tuple(reports), coverage=coverage)


def _close(p: H3Point, q: H3Point, tol: float = 1e-3) -> bool:
    return (abs(p.x - q.x) + abs(p.y - q.y) + abs(p.z - q.z)) < tol

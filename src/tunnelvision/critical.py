"""Critical points of the harmonic measure lifted to hyperbolic 3-space.

For a bounded region invariant under ``zeta -> -zeta`` the measure is
invariant under the half-turn about the z-axis, so its gradient along the
axis is tangent to the axis: interior extrema of the axis restriction are
genuine critical points in 3-space.  The axis profile tends to 1 as z -> 0
(when 0 is interior) and to 0 as z -> infinity, so a profile that is not
monotone produces critical points.  The dogbone region (two small disks plus
a thin corridor through 0) is the standard source of such profiles: seen
from height comparable to the corridor's reach the region is nearly
invisible, while from height ~ 1 both disks contribute, so the profile dips
and recovers before its final decay.

The almost-Kahler verdict reports whether a nowhere-zero self-dual harmonic
form can exist for the associated conformal class: any confirmed critical
point rules it out, while the negative outcome is search-relative evidence
("not found"), never a proof of nonexistence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domains import PlanarDomain, reflection_symmetric
from .hyperbolic import H3Point
from .measure import (MeasureValue, QuadratureConfig, harmonic_measure,
                      measure_many, measure_with_gradient)

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

_SYMMETRY_SAMPLES = 4096
_SYMMETRY_SEED = 20210405


class RefinementError(RuntimeError):
    """Newton refinement diverged or left its search box."""


@dataclass(frozen=True)
class AxisProfile:
    """Samples of the measure along the vertical axis (0, 0, z)."""

    z: np.ndarray
    f: np.ndarray
    err: np.ndarray

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
    status: str  # "no_critical_point_found" | "critical_points_found"
    reports: tuple
    coverage: dict

    def __post_init__(self):
        found = any(r.conclusive for r in self.reports)
        want = "critical_points_found" if found else "no_critical_point_found"
        if self.status != want:
            raise ValueError(f"status {self.status!r} inconsistent with reports")

    def to_obj(self):
        return {
            "status": self.status,
            "reports": [r.to_obj() for r in self.reports],
            "coverage": self.coverage,
        }


@dataclass(frozen=True)
class GridSpec:
    """A rectangular search grid; z levels are log-spaced."""

    x: tuple = (-0.9, 0.9, 20)
    y: tuple = (-0.9, 0.9, 20)
    z: tuple = (0.1, 10.0, 20)

    @staticmethod
    def for_domain(domain: PlanarDomain, n: int = 20) -> "GridSpec":
        r = domain.bounding_radius
        if not math.isfinite(r):
            raise ValueError("grid search requires a bounded domain")
        return GridSpec(x=(-r, r, n), y=(-r, r, n), z=(0.05 * r, 8.0 * r, n))

    def axes(self):
        xs = np.linspace(self.x[0], self.x[1], int(self.x[2]))
        ys = np.linspace(self.y[0], self.y[1], int(self.y[2]))
        zs = np.geomspace(self.z[0], self.z[1], int(self.z[2]))
        return xs, ys, zs

    def points(self):
        """The grid points, x slowest and z fastest."""
        xs, ys, zs = self.axes()
        return [H3Point(float(x), float(y), float(z))
                for x in xs for y in ys for z in zs]

    def to_obj(self):
        return {"x": list(self.x), "y": list(self.y), "z": list(self.z)}


def _axis_points(zs):
    return [H3Point(0.0, 0.0, z) for z in zs]


def axis_profile(domain: PlanarDomain, z_min: float, z_max: float, n: int,
                 config: QuadratureConfig = QuadratureConfig()) -> AxisProfile:
    """Log-spaced samples of the measure along the axis through 0."""
    if not 0.0 < z_min < z_max:
        raise ValueError("need 0 < z_min < z_max")
    if n < 2:
        raise ValueError("need at least two samples")
    zs = np.geomspace(z_min, z_max, n)
    vals = measure_many(domain, _axis_points(zs.tolist()), config)
    return AxisProfile(z=zs,
                       f=np.array([v.value for v in vals]),
                       err=np.array([v.error for v in vals]))


def _require_axis_symmetric(domain: PlanarDomain):
    if not math.isfinite(domain.bounding_radius):
        raise ValueError("axis search requires a bounded domain")
    if not reflection_symmetric(domain, _SYMMETRY_SAMPLES, _SYMMETRY_SEED):
        raise ValueError("axis extrema are critical points only for domains "
                         "invariant under zeta -> -zeta; symmetry check failed")


def _golden_section(fun, a, b, tol, maximize):
    """Standard golden-section search on [a, b]; returns (x, fun(x))."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    sign = -1.0 if maximize else 1.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = sign * fun(c), sign * fun(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = sign * fun(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = sign * fun(d)
    x = 0.5 * (a + b)
    return x


def _hessian_at(domain, p, config, h=None):
    """Coordinate Hessian of the measure by central differences of the gradient."""
    if h is None:
        h = max(1e-4, 2e-3 * p.z)
    base = p.as_array()
    pts = [H3Point(*(base + s)) for d in h * np.eye(3) for s in (d, -d)]
    grads = measure_many(domain, pts, config, gradient=True)[1]
    H = ((grads[0::2] - grads[1::2]) / (2.0 * h)).T
    return 0.5 * (H + H.T)


def _axis_report(domain, z_star, classification, config, refine_tol, conclusive):
    p = H3Point(0.0, 0.0, z_star)
    mv, grad, _ = measure_with_gradient(domain, p, config)
    H = _hessian_at(domain, p, config)
    return CriticalPointReport(
        location=p,
        f_value=mv.value,
        f_error=mv.error,
        grad_norm_hyperbolic=p.z * float(np.linalg.norm(grad)),
        classification=classification,
        hessian_det=float(np.linalg.det(H)),
        tolerance=refine_tol,
        conclusive=conclusive,
    )


def axis_critical_points(profile: AxisProfile, domain: PlanarDomain,
                         refine_tol: float = 1e-6,
                         config: QuadratureConfig = QuadratureConfig()):
    """Locate and classify interior extrema of the axis profile.

    Sign changes of the discrete derivative are bracketed and refined by
    golden-section search on the measure itself.  An extremum is
    ``conclusive`` when the analytic derivative df/dz at the two bracket ends
    has the expected opposite signs beyond its error bars, which proves a
    zero of df/dz inside the bracket.

    The domain must be bounded and pass the reflection-symmetry check;
    otherwise axis extrema would not be critical points of the 3-space
    function and the call is rejected.
    """
    _require_axis_symmetric(domain)
    z = profile.z
    df = np.diff(profile.f)
    brackets = [i for i in range(len(df) - 1)
                if df[i] != 0.0 and df[i] * df[i + 1] < 0.0]
    # df/dz at both ends of every bracket, in one batched evaluation
    ends = _axis_points(z[i + k] for i in brackets for k in (0, 2))
    _, grads, gerrs = measure_many(domain, ends, config, gradient=True)
    slope = grads[:, 2].reshape(-1, 2)
    slope_err = gerrs[:, 2].reshape(-1, 2)

    def fun(zz):
        return harmonic_measure(domain, H3Point(0.0, 0.0, zz), config).value

    reports = []
    for i, (ga, gb), (ea, eb) in zip(brackets, slope, slope_err):
        is_max = df[i] > 0.0
        sign = 1.0 if is_max else -1.0  # f rises into a max, falls into a min
        conclusive = bool(sign * ga > ea and sign * gb < -eb)
        z_star = _golden_section(fun, z[i], z[i + 2], refine_tol,
                                 maximize=is_max)
        reports.append(_axis_report(domain, z_star,
                                    "axis-max" if is_max else "axis-min",
                                    config, refine_tol, conclusive))
    return reports


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
    [epsilon^2, 10] for critical points.  Returns a DogboneReport together
    with the axis profile used for the search.  ``threads`` is accepted and
    has no effect.
    """
    from .domains import dogbone  # local import to keep module deps one-way

    if not 0.0 < epsilon < 0.5:
        raise ValueError(f"epsilon must lie in (0, 1/2), got {epsilon}")
    domain = dogbone(epsilon)
    f_eps, f_one = measure_many(domain, _axis_points([epsilon, 1.0]), config)
    separated = (f_eps.value + f_eps.error < f_one.value - f_one.error
                 or f_one.value + f_one.error < f_eps.value - f_eps.error)
    holds = f_eps.value + f_eps.error < f_one.value - f_one.error
    window = (epsilon**2, 10.0)
    profile = axis_profile(domain, window[0], window[1], n_samples, config)
    cps = axis_critical_points(profile, domain, refine_tol, config)
    report = DogboneReport(
        epsilon=epsilon,
        f_at_eps=f_eps,
        f_at_one=f_one,
        inequality_holds=bool(holds and separated),
        inconclusive=not separated,
        critical_points=tuple(cps),
        window=window,
        samples=n_samples,
    )
    return report, profile


def refine_critical_point_3d(domain: PlanarDomain, p0: H3Point, tol: float,
                             config: QuadratureConfig = QuadratureConfig(),
                             max_steps: int = 30) -> CriticalPointReport:
    """Damped Newton refinement of the gradient zero near ``p0``.

    Works in Euclidean coordinates with the hyperbolic gradient norm
    ``z * |grad f|`` as the convergence functional (critical points agree in
    both metrics).  Raises RefinementError on divergence or when the iterate
    leaves the search box around the start point.
    """
    r_dom = domain.bounding_radius
    box_xy = 2.0 * (r_dom if math.isfinite(r_dom) else 10.0)
    z_lo, z_hi = p0.z / 64.0, p0.z * 64.0

    p = p0
    mv, grad, _ = measure_with_gradient(domain, p, config)
    norm = p.z * float(np.linalg.norm(grad))
    for _ in range(max_steps):
        if norm < tol:
            H = _hessian_at(domain, p, config)
            return CriticalPointReport(
                location=p, f_value=mv.value, f_error=mv.error,
                grad_norm_hyperbolic=norm, classification="3d-refined",
                hessian_det=float(np.linalg.det(H)), tolerance=tol,
            )
        H = _hessian_at(domain, p, config)
        try:
            step = np.linalg.solve(H, -grad)
        except np.linalg.LinAlgError as exc:
            raise RefinementError(f"singular Hessian at {p}") from exc
        lam = 1.0
        improved = False
        while lam > 1.0 / 64.0:
            cand = p.as_array() + lam * step
            if (abs(complex(cand[0], cand[1])) > box_xy
                    or not z_lo < cand[2] < z_hi):
                raise RefinementError(f"left the search box at {cand}")
            q = H3Point(*cand)
            mv2, grad2, _ = measure_with_gradient(domain, q, config)
            norm2 = q.z * float(np.linalg.norm(grad2))
            if norm2 < norm * (1.0 - 0.25 * lam) or norm2 < tol:
                p, mv, grad, norm = q, mv2, grad2, norm2
                improved = True
                break
            lam *= 0.5
        if not improved:
            raise RefinementError(
                f"no descent step from {p} (gradient norm {norm:.3e})")
    raise RefinementError(f"did not converge in {max_steps} steps "
                          f"(gradient norm {norm:.3e})")


def almost_kahler_verdict(domain: PlanarDomain, search: GridSpec | None = None,
                          config: QuadratureConfig = QuadratureConfig(),
                          threads: int = 1) -> Verdict:
    """Search for critical points and report the almost-Kahler consequence.

    Any converged report means the associated conformal class is not
    representable by an almost-Kahler metric.  ``no_critical_point_found`` is
    explicitly search-relative: it is evidence at the coverage recorded in
    the verdict, not a proof that none exist.  ``threads`` is accepted and
    has no effect.
    """
    r = domain.bounding_radius
    if not math.isfinite(r):
        raise ValueError("verdict search requires a bounded domain")
    if not bool(domain.contains(0j)):
        raise ValueError("verdict search expects a domain containing 0")
    if search is None:
        search = GridSpec.for_domain(domain)
    threshold = 10.0 * config.tolerance

    reports = []
    symmetric = reflection_symmetric(domain, _SYMMETRY_SAMPLES, _SYMMETRY_SEED)
    if symmetric:
        zs = search.axes()[2]
        profile = axis_profile(domain, zs[0], zs[-1], 200, config)
        reports.extend(axis_critical_points(profile, domain, 1e-6, config))

    pts = search.points()
    grads = measure_many(domain, pts, config, gradient=True)[1]
    norms = np.array([p.z * float(np.linalg.norm(g))
                      for p, g in zip(pts, grads)])
    min_norm = float(norms.min())

    for idx in np.nonzero(norms < threshold)[0]:
        p = pts[int(idx)]
        if any(_close(p, rep.location) for rep in reports):
            continue
        try:
            rep = refine_critical_point_3d(domain, p, threshold, config)
        except RefinementError:
            continue
        if not any(_close(rep.location, r0.location) for r0 in reports):
            reports.append(rep)

    found = any(rep.conclusive for rep in reports)
    coverage = {
        "grid": search.to_obj(),
        "grid_points": len(pts),
        "min_grid_gradient_norm": min_norm,
        "threshold": threshold,
        "tolerance": config.tolerance,
        "axis_search": symmetric,
        "note": "no_critical_point_found is relative to this coverage",
    }
    return Verdict(
        status="critical_points_found" if found else "no_critical_point_found",
        reports=tuple(reports),
        coverage=coverage,
    )


def _close(p: H3Point, q: H3Point, tol: float = 1e-3) -> bool:
    return (abs(p.x - q.x) + abs(p.y - q.y) + abs(p.z - q.z)) < tol

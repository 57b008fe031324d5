"""Adaptive Gauss-Kronrod quadrature over a fixed interval, batch-evaluated.

:func:`integrate_many` integrates n independent integrals, each with its own
partition, rounds and convergence flag (k components of one integral share
its partition).  Refinement proceeds in deterministic rounds: every interval
whose error estimate exceeds its proportional share of the budget is
bisected, and the new nodes of all integrals still refining are evaluated in
shared integrand calls, so a vectorized integrand pays one dispatch per
round instead of one per integral.

Final sums use math.fsum, which is exactly rounded; a result is therefore
independent of interval order and of the integrals that shared its calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

__all__ = ["QuadratureResult", "adaptive_integrate", "integrate_many"]

# Intervals per integrand call.  A larger round is split into several calls,
# and integrals not yet started join a round only while it is smaller; this
# bounds both the integrand's working arrays and the integrals held at once.
MAX_CALL_INTERVALS = 128

# An integral whose partition grows past this many intervals stops refining,
# as it does at its round limit.
MAX_INTERVALS = 20000

# 15-point Kronrod extension of 7-point Gauss (QUADPACK constants).
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769, 0.741531185599394,
    0.586087235467691, 0.405845151377397, 0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250, 0.140653259715525,
    0.169004726639267, 0.190350578064785, 0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469,
])

# node layout within an interval: descending left nodes, center, mirrored right
_NODES = np.concatenate([-_XGK[:-1], [0.0], _XGK[-2::-1]])          # (15,)
_WK = np.concatenate([_WGK[:-1], [_WGK[-1]], _WGK[-2::-1]])         # (15,)
_WGFULL = np.zeros(15)
_WGFULL[1:14:2] = np.array([_WG[0], _WG[1], _WG[2], _WG[3], _WG[2], _WG[1], _WG[0]])
_W = np.stack([_WK, _WGFULL])                                       # (2, 15)


@dataclass(frozen=True)
class QuadratureResult:
    value: np.ndarray       # (k,) component integrals
    error: np.ndarray       # (k,) accumulated |K15 - G7| per component
    intervals: int
    rounds: int
    converged: bool


def _evaluate(f, parts):
    """K15 sums and |K15 - G7| errors of ``(owner, lefts, rights)`` parts.

    All intervals go through shared calls of ``f``, at most
    ``MAX_CALL_INTERVALS`` per call; returns (K, E) of shape (n_i, k) per part.
    """
    sizes = [len(l) for _, l, _ in parts]
    if len(parts) == 1:
        (i, lefts, rights), = parts
        owners = np.full(15 * len(lefts), i)
    else:
        lefts = np.concatenate([l for _, l, _ in parts])
        rights = np.concatenate([r for _, _, r in parts])
        owners = np.repeat([i for i, _, _ in parts], [15 * n for n in sizes])
    Ks, Es = [], []
    for s in range(0, len(lefts), MAX_CALL_INTERVALS):
        l = lefts[s:s + MAX_CALL_INTERVALS]
        r = rights[s:s + MAX_CALL_INTERVALS]
        mid = 0.5 * (l + r)
        half = 0.5 * (r - l)
        x = (mid[:, None] + half[:, None] * _NODES[None, :]).ravel()
        y = f(x, owners[15 * s:15 * s + len(x)])
        y = np.asarray(y, dtype=float).reshape(len(l), 15, -1)
        K, G = half[:, None] * np.einsum("wj,ijk->wik", _W, y)
        Ks.append(K)
        Es.append(np.abs(K - G))
    K = Ks[0] if len(Ks) == 1 else np.concatenate(Ks)
    E = Es[0] if len(Es) == 1 else np.concatenate(Es)
    return [(K[e - n:e], E[e - n:e]) for n, e in zip(sizes, accumulate(sizes))]


def _result(lefts, K, E, rounds, converged):
    order = np.argsort(lefts, kind="stable")
    k = K.shape[1]
    value = np.array([math.fsum(K[order, j]) for j in range(k)])
    error = np.array([math.fsum(E[order, j]) for j in range(k)])
    return QuadratureResult(value=value, error=error, intervals=len(lefts),
                            rounds=rounds, converged=converged)


def integrate_many(f, a: float, b: float, tol: float, breakpoints,
                   max_rounds: int = 24) -> list[QuadratureResult]:
    """Integrate n integrands over [a, b], each to absolute tolerance ``tol``.

    ``f(x, owner)`` returns integrand ``owner[i]`` at ``x[i]``, shape (m,) or
    (m, k); ``breakpoints`` holds one sequence of known kink locations per
    integral.  ``tol`` applies to the worst component of each integral; every
    component reports its own error sum.  Integrals not yet started join a
    round while it has room, and leave as soon as they stop refining, so the
    working set stays small for any n.  Returns one result per integral.
    """
    span = max(1.0, abs(b - a))
    total_len = b - a
    results = [None] * len(breakpoints)
    waiting = iter(enumerate(breakpoints))
    live = {}  # integral -> (lefts, rights, K, E, rounds)
    while True:
        batch = []  # (integral, kept (l, r, K, E) or None, new l, new r, rounds)
        for i, (lefts, rights, K, E, rounds) in live.items():
            worst = E.max(axis=1)
            # bisect every interval holding more than its share of the budget
            split = worst > tol * (rights - lefts) / total_len
            capped = rounds >= max_rounds or len(lefts) > MAX_INTERVALS
            if worst.sum() <= tol or not (capped or split.any()):
                results[i] = _result(lefts, K, E, rounds, True)
            elif capped:
                results[i] = _result(lefts, K, E, rounds, False)
            else:
                keep = ~split
                sl, sr = lefts[split], rights[split]
                sm = 0.5 * (sl + sr)
                batch.append((i, (lefts[keep], rights[keep], K[keep], E[keep]),
                              np.concatenate([sl, sm]), np.concatenate([sm, sr]),
                              rounds + 1))
        size = sum(len(item[2]) for item in batch)
        for i, bps in waiting:
            pts = sorted({a, b, *(p for p in bps if a < p < b)})
            lefts = np.array(pts[:-1])
            rights = np.array(pts[1:])
            ok = rights - lefts > 1e-15 * span
            batch.append((i, None, lefts[ok], rights[ok], 0))
            size += int(ok.sum())
            if size >= MAX_CALL_INTERVALS:
                break
        if not batch:
            return results
        live = {}
        new = _evaluate(f, [(i, nl, nr) for i, _, nl, nr, _ in batch])
        for (i, kept, nl, nr, rounds), (nK, nE) in zip(batch, new):
            if kept is not None:
                kl, kr, kK, kE = kept
                nl, nr = np.concatenate([kl, nl]), np.concatenate([kr, nr])
                nK, nE = np.concatenate([kK, nK]), np.concatenate([kE, nE])
            live[i] = (nl, nr, nK, nE, rounds)


def adaptive_integrate(f, a: float, b: float, tol: float,
                       breakpoints=(), max_rounds: int = 24) -> QuadratureResult:
    """Integrate ``f(x)`` over [a, b]: the one-integral :func:`integrate_many`."""
    return integrate_many(lambda x, owner: f(x), a, b, tol, [breakpoints],
                          max_rounds)[0]

"""Span tracing of the tunnelvision library, installed from outside.

``Tracer.install()`` replaces the library's public functions with wrappers
that record one span per call: name, start, end, parent span and operation
id, plus a few counts taken from the arguments or the result.  Where a
module imported a function by name (``critical.pmap``,
``greens.apply_h3_batch``, ...), the wrapper replaces every name that refers
to the original, so callers see the wrapper.  Domain methods are wrapped on
their classes and only the outermost call is recorded (a ``Union.contains``
is one span, not one per child).

Spans live in memory; ``write`` dumps them as JSON lines at the end of a
run, and ``layer_metrics`` derives self times and the per-layer metrics.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

# (module, attribute, span name, kind); kind selects the counts recorded.
FUNCTIONS = [
    ("quadrature", "adaptive_integrate", "quadrature.adaptive_integrate", "quad"),
    ("measure", "harmonic_measure", "measure.harmonic_measure", None),
    ("measure", "measure_with_gradient", "measure.measure_with_gradient", None),
    ("critical", "dogbone_experiment", "critical.dogbone_experiment", None),
    ("critical", "axis_profile", "critical.axis_profile", None),
    ("critical", "axis_critical_points", "critical.axis_critical_points", "len"),
    ("critical", "refine_critical_point_3d", "critical.refine_critical_point_3d", None),
    ("critical", "almost_kahler_verdict", "critical.almost_kahler_verdict", None),
    ("forms", "zero_locus_report", "forms.zero_locus_report", None),
    ("runio", "pmap", "runio.pmap", "pmap"),
    ("runio", "write_json", "runio.write", None),
    ("runio", "write_csv", "runio.write", None),
    ("groups", "enumerate_group", "groups.enumerate_group", "len"),
    ("groups", "limit_set_sample", "groups.limit_set_sample", None),
    ("greens", "quotient_green", "greens.quotient_green", None),
    ("greens", "find_quantizable", "greens.find_quantizable", None),
    ("hyperbolic", "apply_h3_batch", "hyperbolic.apply_h3_batch", None),
    ("hyperbolic", "h3_distance_batch", "hyperbolic.h3_distance_batch", None),
    ("cli", "main", "cli.main", None),
]
DOMAIN_METHODS = ("ray_crossings", "contains")
MEASURE_SPANS = ("measure.harmonic_measure", "measure.measure_with_gradient")

# span layout: [id, parent, name, start, end, op, counts]
ID, PARENT, NAME, START, END, OP, COUNTS = range(7)


class Tracer:
    """Records spans of library calls made while it is installed."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches = []

    # -- recording --------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name, counts=None):
        stack = self._stack()
        span = [next(self._ids), stack[-1][ID] if stack else None, name,
                time.perf_counter(), None, self.op, counts]
        stack.append(span)
        return span

    def end(self, span):
        span[END] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def _wrap(self, name, fn, kind):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = None
            if kind == "pmap":
                return tracer._pmap(fn, *args, **kwargs)
            if kind == "integrand":
                counts = {"nodes": len(args[1])}
            span = tracer.begin(name, counts)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if kind == "quad":
                span[COUNTS] = {"rounds": out.rounds, "intervals": out.intervals,
                                "converged": bool(out.converged)}
            elif kind == "len":
                span[COUNTS] = {"n": len(out)}
            return out

        return wrapper

    def _pmap(self, pmap, fn, items, threads=1):
        items = list(items)
        span = self.begin("runio.pmap", {"items": len(items)})
        tracer = self

        def child(item):
            # worker threads start with an empty stack: parent them to the map
            stack = tracer._stack()
            adopt = not stack
            if adopt:
                stack.append(span)
            try:
                return fn(item)
            finally:
                if adopt:
                    stack.pop()

        try:
            return pmap(child, items, threads)
        finally:
            self.end(span)

    def _wrap_domain(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(domain, *args):
            local = tracer._local
            if getattr(local, "in_domains", False):
                return fn(domain, *args)
            pts = args[-1]
            counts = {"n": int(getattr(pts, "size", 1))}
            local.in_domains = True
            span = tracer.begin(name, counts)
            try:
                return fn(domain, *args)
            finally:
                tracer.end(span)
                local.in_domains = False

        return wrapper

    # -- installation -----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the library; requires ``tunnelvision`` to be importable."""
        import tunnelvision.cli  # noqa: F401  (the package omits the CLI)
        from tunnelvision import domains, measure

        modules = [m for n, m in sys.modules.items()
                   if n == "tunnelvision" or n.startswith("tunnelvision.")]
        for mod_name, attr, name, kind in FUNCTIONS:
            original = getattr(sys.modules[f"tunnelvision.{mod_name}"], attr)
            wrapper = self._wrap(name, original, kind)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._set(mod, key, wrapper)
        self._set(measure._RayIntegrand, "__call__",
                  self._wrap("measure.integrand",
                             measure._RayIntegrand.__call__, "integrand"))
        for cls in vars(domains).values():
            if isinstance(cls, type) and issubclass(cls, domains.PlanarDomain):
                for meth in DOMAIN_METHODS:
                    if meth in cls.__dict__:
                        self._set(cls, meth, self._wrap_domain(
                            f"domains.{meth}", cls.__dict__[meth]))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output -----------------------------------------------------------------

    def write(self, path):
        """Write the spans as JSON lines, in start order."""
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s[START]):
                fh.write(json.dumps({"id": s[ID], "parent": s[PARENT],
                                     "name": s[NAME], "start": s[START],
                                     "end": s[END], "op": s[OP],
                                     **(s[COUNTS] or {})}))
                fh.write("\n")

    def adopt(self, path):
        """Merge spans another process wrote, under the current span.

        ``perf_counter`` is the system-wide monotonic clock on Linux, so the
        child's times are on the same axis as ours.
        """
        with open(path) as fh:
            records = [json.loads(line) for line in fh]
        parent = self._stack()[-1][ID]
        remap = {r["id"]: next(self._ids) for r in records}
        for r in records:
            span = [remap[r.pop("id")], remap.get(r.pop("parent"), parent),
                    r.pop("name"), r.pop("start"), r.pop("end"), self.op, None]
            r.pop("op")
            span[COUNTS] = r or None
            self.spans.append(span)


# -- derived metrics --------------------------------------------------------------


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans):
    """Span id -> duration minus the part of it its child spans cover."""
    kids = {}
    for s in spans:
        kids.setdefault(s[PARENT], []).append(s)
    out = {}
    for s in spans:
        cover = _covered([(max(c[START], s[START]), min(c[END], s[END]))
                          for c in kids.get(s[ID], ())])
        out[s[ID]] = (s[END] - s[START]) - cover
    return out


LAYERS = ("domains", "quadrature", "measure", "critical", "forms", "runio",
          "groups", "greens", "hyperbolic", "cli")


def layer_metrics(spans, n_ops):
    """Per-layer metrics, normalized per operation where they are totals.

    ``spans`` must include one root span named ``op`` per operation.
    """
    selfs = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)

    def calls(name):
        return len(by_name.get(name, ())) / n_ops

    def secs(name):
        return sum(s[END] - s[START] for s in by_name.get(name, ())) / n_ops

    def count(name, key):
        return sum((s[COUNTS] or {}).get(key, 0) for s in by_name.get(name, ()))

    m = {}
    for name, work in (("domains.ray_crossings", "domains.rays"),
                       ("domains.contains", "domains.contains.points")):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = secs(name)
        m[work] = count(name, "n") / n_ops

    quads = by_name.get("quadrature.adaptive_integrate", [])
    quad_ids = {s[ID] for s in quads}
    integrands = by_name.get("measure.integrand", [])
    n_q = max(len(quads), 1)
    rounds = [s[COUNTS]["rounds"] for s in quads]
    m["quadrature.adaptive_integrate.calls"] = calls("quadrature.adaptive_integrate")
    m["quadrature.adaptive_integrate.s"] = secs("quadrature.adaptive_integrate")
    m["quadrature.adaptive_integrate.self_s"] = sum(selfs[i] for i in quad_ids) / n_ops
    m["quadrature.dispatches_per_eval"] = sum(
        1 for s in integrands if s[PARENT] in quad_ids) / n_q
    m["quadrature.nodes_per_eval"] = sum(
        s[COUNTS]["nodes"] for s in integrands if s[PARENT] in quad_ids) / n_q
    m["quadrature.rounds_mean"] = sum(rounds) / n_q
    m["quadrature.rounds_max"] = max(rounds, default=0)
    m["quadrature.intervals_mean"] = sum(s[COUNTS]["intervals"] for s in quads) / n_q
    m["quadrature.nonconverged"] = sum(
        1 for s in quads if not s[COUNTS]["converged"]) / n_ops

    for name in MEASURE_SPANS:
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = secs(name)
    m["measure.integrand.self_s"] = sum(selfs[s[ID]] for s in integrands) / n_ops

    for name in ("critical.axis_profile", "critical.axis_critical_points",
                 "critical.almost_kahler_verdict", "forms.zero_locus_report",
                 "groups.limit_set_sample", "greens.find_quantizable",
                 "hyperbolic.apply_h3_batch", "hyperbolic.h3_distance_batch",
                 "runio.write"):
        m[f"{name}.s"] = secs(name)
    for name in ("critical.refine_critical_point_3d", "runio.pmap",
                 "greens.quotient_green"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = secs(name)
    m["critical.evals_per_cp"] = _evals_per_cp(spans, by_name)
    m["runio.pmap.items"] = count("runio.pmap", "items") / n_ops

    enum_s = secs("groups.enumerate_group")
    elements = count("groups.enumerate_group", "n") / n_ops
    m["groups.enumerate_group.s"] = enum_s
    m["groups.elements"] = elements
    m["groups.elements_per_s"] = elements / enum_s if enum_s > 0 else 0.0

    layer_self = dict.fromkeys(LAYERS, 0.0)
    unattributed = op_total = 0.0
    for s in spans:
        if s[NAME] == "op":
            unattributed += selfs[s[ID]]
            op_total += s[END] - s[START]
        else:
            layer_self[s[NAME].split(".")[0]] += selfs[s[ID]]
    for layer, v in layer_self.items():
        m[f"layer.{layer}.self_s"] = v / n_ops
    m["layer.unattributed.self_s"] = unattributed / n_ops
    m["trace.unattributed_frac"] = unattributed / op_total if op_total else 0.0
    return m


def _evals_per_cp(spans, by_name):
    """Measure evaluations made inside axis_critical_points per point found."""
    parent = {s[ID]: s[PARENT] for s in spans}
    acp = {s[ID]: s for s in by_name.get("critical.axis_critical_points", ())}
    if not acp:
        return 0.0
    evals = 0
    for name in MEASURE_SPANS:
        for s in by_name.get(name, ()):
            p = s[PARENT]
            while p is not None and p not in acp:
                p = parent.get(p)
            evals += p is not None
    found = sum(s[COUNTS]["n"] for s in acp.values())
    return evals / found if found else 0.0


"""The benchmark's workloads: seeded inputs, one operation, per-operation checks.

Every workload is a closed loop with one client.  Inputs are drawn in
*rounds*: a round is a seeded permutation of a fixed set of operation kinds,
and a run executes whole rounds only, so every run of a workload does the
same mix of work whatever its seed or length.  The seed decides the order
and the free parameters (points, poles, the eps of a grid search).  A
seeded eps is dealt from a shuffled deck of the reference eps (``Deck``),
so consecutive draws cover every eps before any repeats, and runs with
different seeds do nearly the same work.

``run(spec)`` is the timed operation.  ``check(spec, out, acc)`` runs after
the clock stops and returns ``(failures, wrong)``: failures count toward
``failed_ops_frac``; wrong outputs (a value far from the reference) make the
run incorrect.  ``acc`` collects the accuracy metrics.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

TOLS = (1e-7, 1e-9)
GRID_N = (6, 7, 8)
SHELL_COUNTS = [1, 8, 56, 392, 2736, 19096, 133288]   # genus 2, word length 0..6
GROSS_F = 1e-4     # |f - reference| beyond this is a wrong value, not imprecision
GROSS_Z = 1e-2     # same for a critical-point height
CLI_TIMEOUT_S = 120


def load_reference():
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    return {entry["eps"]: entry for entry in ref["eps"]}


class Deck:
    """Draws items in seeded shuffles: every item once, then a new shuffle."""

    def __init__(self, rng, items):
        self.rng = rng
        self.items = list(items)
        self.left = []

    def draw(self):
        if not self.left:
            self.left = [self.items[i] for i in self.rng.permutation(len(self.items))]
        return self.left.pop()


class Accuracy:
    """Worst error, tolerance violations and critical-point height error."""

    def __init__(self):
        self.err_max = None
        self.points = 0
        self.violations = 0
        self.cp_z_err_max = None

    def point(self, value, ref, err, tol):
        """Record one value against its reference; True if grossly wrong."""
        d = abs(value - ref)
        self.err_max = d if self.err_max is None else max(self.err_max, d)
        self.points += 1
        self.violations += d > max(err, tol)
        return d > GROSS_F

    def cp(self, z, z_ref):
        d = abs(z - z_ref)
        self.cp_z_err_max = d if self.cp_z_err_max is None else max(self.cp_z_err_max, d)
        return d > GROSS_Z

    @property
    def violation_frac(self):
        return self.violations / self.points if self.points else None


def _check_cps(reports, ref_cps, acc, tol):
    """Match reported axis critical points to the reference ones."""
    failures, wrong = [], []
    for rc in ref_cps:
        near = [r for r in reports if r.classification == rc["classification"]]
        if not near:
            failures.append(f"missing {rc['classification']}")
            continue
        r = min(near, key=lambda r: abs(r.location.z - rc["z"]))
        if acc.cp(r.location.z, rc["z"]):
            wrong.append(f"{rc['classification']} at z={r.location.z:.6g}, "
                         f"reference {rc['z']:.6g}")
        if acc.point(r.f_value, rc["f"], r.f_error, tol):
            wrong.append(f"{rc['classification']} value off the reference")
        if not r.conclusive:
            failures.append(f"{rc['classification']} not conclusive")
    return failures, wrong


class DogboneAxis:
    name = "dogbone-axis"
    threads = 1
    in_process = True

    def __init__(self, rng, ctx):
        from tunnelvision import measure
        self.rng = rng
        self.ref = ctx["reference"]
        self.eps = sorted(self.ref)
        self.tight_eps = Deck(rng, self.eps)
        self.configs = {tol: measure.QuadratureConfig(tolerance=tol) for tol in TOLS}

    def warmup(self):
        from tunnelvision import domains, hyperbolic, measure
        measure.harmonic_measure(domains.dogbone(0.1), hyperbolic.H3Point(0.0, 0.0, 1.0))

    def round(self):
        # every eps at the default tol, and two seeded eps at the tight one
        # (two rounds deal every eps once): with a 2:1 mix the median
        # operation falls inside the default-tol cluster instead of in the
        # gap between the two clusters, and p90 inside the tight-tol one
        specs = [(eps, TOLS[0]) for eps in self.eps]
        specs += [(self.tight_eps.draw(), TOLS[1]) for _ in range(2)]
        return [specs[i] for i in self.rng.permutation(len(specs))]

    def label(self, spec):
        return f"eps={spec[0]} tol={spec[1]:g}"

    def run(self, spec):
        from tunnelvision import critical
        eps, tol = spec
        return critical.dogbone_experiment(eps, self.configs[tol], threads=self.threads)

    def check(self, spec, out, acc):
        eps, tol = spec
        report, profile = out
        ref = self.ref[eps]
        if not np.array_equal(profile.z, np.array(ref["z"])):
            return ["profile heights differ from the reference table"], []
        wrong = []
        bad = [acc.point(v, r, e, tol)
               for v, r, e in zip(profile.f.tolist(), ref["f"], profile.err.tolist())]
        if any(bad):
            wrong.append(f"{sum(bad)} profile values off the reference")
        for mv, r in ((report.f_at_eps, ref["f_at_eps"]), (report.f_at_one, ref["f_at_one"])):
            if acc.point(mv.value, r, mv.error, tol):
                wrong.append("f(eps) or f(1) off the reference")
        failures, wrong_cp = _check_cps(report.critical_points, ref["critical_points"],
                                        acc, tol)
        return failures, wrong + wrong_cp


class VerdictGrid:
    name = "verdict-grid"
    threads = os.cpu_count() or 1   # the CLI default
    in_process = True

    def __init__(self, rng, ctx):
        from tunnelvision import critical, domains, measure
        self.rng = rng
        self.ref = ctx["reference"]
        self.eps = sorted(self.ref)
        self.deck = Deck(rng, self.eps)
        self.domains = {eps: domains.dogbone(eps) for eps in self.eps}
        self.grids = {(eps, n): critical.GridSpec.for_domain(self.domains[eps], n)
                      for eps in self.eps for n in GRID_N}
        self.config = measure.QuadratureConfig()
        self.validate = ctx["schemas"]

    def warmup(self):
        from tunnelvision import hyperbolic, measure
        measure.measure_with_gradient(self.domains[self.eps[0]],
                                      hyperbolic.H3Point(0.1, 0.1, 0.5))

    def round(self):
        return [(self.deck.draw(), GRID_N[i]) for i in self.rng.permutation(len(GRID_N))]

    def label(self, spec):
        return f"eps={spec[0]} n={spec[1]}"

    def run(self, spec):
        from tunnelvision import critical, forms
        d, grid = self.domains[spec[0]], self.grids[spec]
        verdict = critical.almost_kahler_verdict(d, grid, self.config, threads=self.threads)
        zeros = forms.zero_locus_report(d, grid, self.config, threads=self.threads)
        return verdict, zeros

    def check(self, spec, out, acc):
        verdict, zeros = out
        ref_cps = self.ref[spec[0]]["critical_points"]
        failures = self.validate("verdict.schema.json", verdict.to_obj())
        if ref_cps and verdict.status != "critical_points_found":
            failures.append(f"verdict {verdict.status}")
        if not zeros.cross_referenced:
            failures.append("zero-locus clusters not matched by critical points")
        axis = [r for r in verdict.reports if r.classification.startswith("axis-")]
        more_failures, wrong = _check_cps(axis, ref_cps, acc, self.config.tolerance)
        return failures + more_failures, wrong


class GroupsSeries:
    name = "groups-series"
    threads = 1
    in_process = True
    pairs_per_op = 2
    depth = 6
    limit_depth = 5

    def __init__(self, rng, ctx):
        from tunnelvision import groups
        self.rng = rng
        self.generators = groups.side_pairing_generators(2)

    def warmup(self):
        from tunnelvision import groups
        groups.enumerate_group(self.generators, 2)

    def _pair(self):
        from tunnelvision.hyperbolic import H3Point, h3_distance
        while True:
            a, b = (H3Point(*self.rng.uniform(-0.3, 0.3, 2), self.rng.uniform(0.6, 1.2))
                    for _ in range(2))
            if h3_distance(a, b) > 0.3:
                return a, b

    def round(self):
        return [tuple(self._pair() for _ in range(self.pairs_per_op))]

    def label(self, spec):
        return "genus 2"

    def run(self, spec):
        from tunnelvision import greens, groups
        elements = groups.enumerate_group(self.generators, self.depth)
        series = [greens.quotient_green(elements, pole, q, self.depth) for pole, q in spec]
        limit = groups.limit_set_sample(2, self.limit_depth)
        return elements, series, limit

    def check(self, spec, out, acc):
        from tunnelvision import groups
        elements, series, limit = out
        failures = []
        counts = np.bincount([el.word_length for el in elements]).tolist()
        if counts != SHELL_COUNTS:
            failures.append(f"shell counts {counts}")
        rel = groups.surface_relator(self.generators).matrix()
        if min(np.abs(rel - np.eye(2)).max(), np.abs(rel + np.eye(2)).max()) > 1e-9:
            failures.append("relator is not the identity")
        for sv in series:
            sums = sv.shell_sums
            if not all(b < a for a, b in zip(sums[1:], sums[2:])):
                failures.append("shell sums do not decay")
        if len(limit) != SHELL_COUNTS[self.limit_depth] or \
                np.abs(np.abs(limit) - 1.0).max() > 1e-12:
            failures.append("limit-set sample off the unit circle or miscounted")
        return failures, []


class CliOneshot:
    """One ``tunnelvision`` process per operation, each with a fresh --out-dir."""

    name = "cli-oneshot"
    threads = None     # the CLI's own default
    in_process = False
    kinds = ("measure", "polygon", "green eval", "quantize")
    manifest_stem = {"measure": "measure", "polygon": "polygon",
                     "green eval": "green", "quantize": "quantize"}

    def __init__(self, rng, ctx):
        self.rng = rng
        self.ref = ctx["reference"]
        self.eps = sorted(self.ref)
        self.decks = {kind: Deck(rng, self.eps) for kind in ("measure", "quantize")}
        self.root = ctx["root"]
        self.work = ctx["work"]
        self.validate = ctx["schemas"]
        self.env = ctx["env"]
        self.tracer = None
        self.seq = 0
        self.domain_files = {}
        for eps in self.eps:
            path = os.path.join(self.work, f"dogbone_{eps}.json")
            with open(path, "w") as fh:
                json.dump({"dogbone": {"eps": eps}}, fh)
            self.domain_files[eps] = path

    def warmup(self):
        pass

    def round(self):
        specs = []
        for i in self.rng.permutation(len(self.kinds)):
            kind = self.kinds[i]
            eps = self.decks[kind].draw() if kind in self.decks else None
            if kind == "measure":
                k = int(self.rng.integers(len(self.ref[eps]["z"])))
                args = ["--domain", self.domain_files[eps], "--point", "0", "0",
                        repr(self.ref[eps]["z"][k])]
                specs.append((kind, eps, k, args))
            elif kind == "polygon":
                specs.append((kind, None, None, ["--genus", "2"]))
            elif kind == "green eval":
                pole, point = self._green_points()
                args = ["--pole", *map(repr, pole.tolist()),
                        "--point", *map(repr, point.tolist())]
                specs.append((kind, None, (pole.tolist(), point.tolist()), args))
            else:
                specs.append((kind, eps, None, ["--domain", self.domain_files[eps],
                                                "--k", "2", "--ell", "1"]))
        return specs

    def _green_points(self):
        """A seeded pole and point at hyperbolic distance > 0.1."""
        while True:
            pole, point = self.rng.uniform((-0.5, -0.5, 0.3), (0.5, 0.5, 2.0), (2, 3))
            dd = float(((pole - point) ** 2).sum())
            if math.acosh(1.0 + dd / (2.0 * pole[2] * point[2])) > 0.1:
                return pole, point

    def label(self, spec):
        return spec[0]

    def run(self, spec):
        kind, _, _, args = spec
        self.seq += 1
        out_dir = os.path.join(self.work, f"op{self.seq}")
        argv = [*kind.split(), *args, "--out-dir", out_dir]
        spans = None
        if self.tracer is None:
            cmd = [sys.executable, "-m", "tunnelvision.cli", *argv]
        else:
            spans = out_dir + ".spans.json"
            cmd = [sys.executable, os.path.join(HERE, "cli_shim.py"), spans, *argv]
        rc, stdout, stderr, maxrss_kb, process_s = _run_child(cmd, self.root, self.env)
        if spans is not None:
            self.tracer.adopt(spans)
        return {"rc": rc, "stdout": stdout, "stderr": stderr, "out_dir": out_dir,
                "process_s": process_s, "maxrss_kb": maxrss_kb}

    def _json(self, out, name):
        path = os.path.join(out["out_dir"], name)
        if not os.path.exists(path):
            return None
        with open(path) as fh:
            return json.load(fh)

    def check(self, spec, out, acc):
        kind, eps, extra, _ = spec
        failures, wrong = [], []
        if out["rc"] != 0:
            msg = (out["stderr"].strip().splitlines() or [""])[-1]
            msg = re.sub(r"op\d+", "<out-dir>", msg.replace(self.work + os.sep, ""))
            failures.append(f"exit code {out['rc']}: {msg[:120]}")
        manifest = self._json(out, f"{self.manifest_stem[kind]}.manifest.json")
        out["manifest"] = manifest
        if manifest is None:
            failures.append("no run manifest")
        else:
            failures += self.validate("manifest.schema.json", manifest)
        if kind == "measure":
            fields = out["stdout"].split()
            if len(fields) != 2:
                failures.append("measure printed no value")
            else:
                value, err = float(fields[0]), float(fields[1])
                if acc.point(value, self.ref[eps]["f"][extra], err, 1e-7):
                    wrong.append("measure value off the reference")
        elif kind == "polygon":
            obj = self._json(out, "polygon.json")
            if obj is None:
                failures.append("no polygon.json")
            else:
                failures += self.validate("polygon.schema.json", obj)
                if not (math.isclose(obj.get("area", 0), 4 * math.pi, rel_tol=1e-12)
                        and math.isclose(obj.get("interior_angle", 0), math.pi / 4,
                                         rel_tol=1e-12)):
                    wrong.append("genus-2 octagon area or angle wrong")
        elif kind == "green eval":
            obj = self._json(out, "green.json")
            if obj is None:
                failures.append("no green.json")
            else:
                failures += self.validate("green.schema.json", obj)
                ref = _green_reference(*extra)
                if abs(obj.get("value", 0) - ref) > 1e-9 * ref:
                    wrong.append("Green's function value off the reference")
        else:
            obj = self._json(out, "configuration.json")
            if obj is None:
                failures.append("no configuration.json")
            else:
                failures += self.validate("configuration.schema.json", obj)
                if acc.point(obj.get("sum", 0.0), 1.0, 0.0, 1e-8):
                    wrong.append("quantized sum far from 1")
        return failures, wrong


def _run_child(cmd, cwd, env):
    """Run ``cmd`` to completion: (exit code, stdout, stderr, peak RSS in KiB, wall s).

    The child is reaped with ``os.wait4`` so that its own peak RSS is known;
    ``RUSAGE_CHILDREN`` would mix in every other process this run started.
    """
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=out, stderr=err)
        killer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (proc.returncode, out.read().decode(), err.read().decode(),
                usage.ru_maxrss, wall)


def _green_reference(pole, point):
    """1 / (exp(2 d) - 1) at 30 digits, d the hyperbolic distance."""
    import mpmath
    with mpmath.workdps(30):
        p = [mpmath.mpf(v) for v in pole]
        q = [mpmath.mpf(v) for v in point]
        dd = sum((a - b) ** 2 for a, b in zip(p, q))
        d = mpmath.acosh(1 + dd / (2 * p[2] * q[2]))
        return float(1 / mpmath.expm1(2 * d))


WORKLOADS = {cls.name: cls for cls in (DogboneAxis, VerdictGrid, GroupsSeries, CliOneshot)}

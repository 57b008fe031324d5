#!/usr/bin/env python3
"""Benchmark tunnelvision end to end and layer by layer.

Run from the repository root; the library is imported from ./src (run it
from another checkout to measure that checkout with this benchmark code):

    python3 perfbench/run.py --workload dogbone-axis --seed 1 --trace 0

With ``--trace 0`` the run is untraced and gives the end-to-end metrics.
With ``--trace 1`` the first half of the time runs untraced and the second
half traced (see tracing.py); the result gives the per-layer metrics and the
tracing overhead.  Standard output holds a table of every metric, one
``perfbench-record`` line with everything (metrics, units, provenance) for
``compare.py``, and as its last line the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are those ``BENCHMARK.json`` lists for the trace mode.
See perfbench/README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_FILE = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
SETUP_REPEATS = 7
END_TO_END = [   # every end-to-end metric, in print order, with its unit
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_s", "s"), ("op_tail_s", "s"),
    ("cpu_per_op_s", "s"), ("peak_rss_mb", "MB"), ("failed_ops_frac", "1"),
    ("err_max", "1"), ("err_violation_frac", "1"), ("cp_z_err_max", "1"),
]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def parse_args(argv, default_seconds):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=default_seconds,
                    help="measured time (default: run_seconds in BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true",
                    help="internal: one fresh-interpreter set-up, for setup_s")
    return ap.parse_args(argv)


# -- set-up -----------------------------------------------------------------------


def schema_validator(root):
    """``validate(schema_name, obj) -> [error]`` against the shipped schemas.

    jsonschema is imported and the validators built on the first call, which
    comes from a check after the clock stops, so none of it is set-up time.
    """
    validators = {}

    def build_validators():
        import jsonschema
        from referencing import Registry, Resource
        schema_dir = os.path.join(root, "src", "tunnelvision", "schemas")
        schemas = {}
        for fname in sorted(os.listdir(schema_dir)):
            with open(os.path.join(schema_dir, fname)) as fh:
                schemas[fname] = json.load(fh)
        registry = Registry().with_resources(
            (name, Resource.from_contents(s)) for name, s in schemas.items())
        validators.update((name, jsonschema.Draft202012Validator(s, registry=registry))
                          for name, s in schemas.items())

    def validate(name, obj):
        if not validators:
            build_validators()
        return [f"{name}: {e.message[:120]}" for e in validators[name].iter_errors(obj)]

    return validate


def child_env(root):
    """Our environment, with the checkout's sources first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(root, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def build(args, root, work):
    """Import the library and make the workload's inputs from the seed."""
    import numpy as np
    import tunnelvision  # noqa: F401
    import workloads
    ctx = {"root": root, "work": work, "env": child_env(root),
           "reference": workloads.load_reference(), "schemas": schema_validator(root)}
    return workloads.WORKLOADS[args.workload](np.random.default_rng(args.seed), ctx)


def probe(args, root):
    """Fresh-interpreter set-up: import, reference, inputs.  Prints import time.

    Runs before anything else imports numpy or the benchmark's modules, so
    ``import_s`` is the whole cost of a first ``import tunnelvision``.
    """
    t0 = time.perf_counter()
    import tunnelvision  # noqa: F401
    import_s = time.perf_counter() - t0
    work = os.path.join(root, ".perfbench_work", f"probe-{os.getpid()}")
    os.makedirs(work)
    try:
        build(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"import_s": import_s}))
    return 0


def measure_setup(args, root):
    walls, imports = [], []
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=root, env=child_env(root), capture_output=True,
                              text=True, timeout=120)
        walls.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
        imports.append(json.loads(proc.stdout.strip().splitlines()[-1])["import_s"])
    return statistics.median(walls), statistics.median(imports)


# -- measurement --------------------------------------------------------------------


def cpu_now():
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def run_phase(wl, acc, budget, tracer=None):
    """Whole rounds of operations while the next round still fits in ``budget``."""
    ops = []
    t_start = time.perf_counter()
    rounds = 0
    while True:
        for spec in wl.round():
            rec = {"label": wl.label(spec)}
            if tracer is not None:
                tracer.op = len(ops)
                span = tracer.begin("op")
            c0, t0 = cpu_now(), time.perf_counter()
            try:
                out = wl.run(spec)
                error = None
            except Exception as exc:   # any library error is a failed operation
                out, error = None, f"{type(exc).__name__}: {exc}"
            rec["wall"] = time.perf_counter() - t0
            rec["cpu"] = cpu_now() - c0
            if tracer is not None:
                tracer.end(span)
                tracer.op = None
            if error is None:
                rec["failures"], rec["wrong"] = wl.check(spec, out, acc)
                rec["out"] = out if not wl.in_process else None
            else:
                rec["failures"], rec["wrong"] = [error], []
            ops.append(rec)
            del out
        rounds += 1
        elapsed = time.perf_counter() - t_start
        if elapsed + elapsed / rounds > budget:
            return ops


def op_tail(walls):
    """The tail operation time and its percentile.

    With 100 samples or more: the highest percentile with at least ten
    samples above it (nearest rank), p90 or higher.  With fewer, that
    percentile would fall below p90 (below the median under 20 samples), so
    the interpolated p90 is reported instead.
    """
    xs = sorted(walls)
    n = len(xs)
    if n >= 100:
        p = math.floor(100 * (n - 10) / n)
        return xs[math.ceil(p * n / 100) - 1], p
    if n == 1:
        return xs[0], 90
    return statistics.quantiles(xs, n=10, method="inclusive")[-1], 90


def end_to_end(ops, wl, acc, setup_s):
    walls = [o["wall"] for o in ops]
    failed = sum(1 for o in ops if o["failures"] or o["wrong"])
    tail, tail_p = op_tail(walls)
    if wl.in_process:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:   # the largest CLI process, each measured on its own
        peak_kb = max(o["out"]["maxrss_kb"] for o in ops if o.get("out"))
    m = {
        "setup_s": setup_s,
        "ops_per_s": len(ops) / sum(walls),
        "op_p50_s": statistics.median(walls),
        "op_tail_s": tail,
        "cpu_per_op_s": sum(o["cpu"] for o in ops) / len(ops),
        "peak_rss_mb": peak_kb / 1024.0,
        "failed_ops_frac": failed / len(ops),
        "err_max": acc.err_max,
        "err_violation_frac": acc.violation_frac,
        "cp_z_err_max": acc.cp_z_err_max,
    }
    return m, {"op_tail_percentile": tail_p, "op_samples": len(ops)}


# -- provenance ---------------------------------------------------------------------


def provenance(args, root, wl):
    import numpy
    import scipy
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    src = os.path.join(root, "src", "tunnelvision")
    for dirpath, dirnames, files in sorted(os.walk(src)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for f in sorted(files):
            if f.endswith((".py", ".json")):
                with open(os.path.join(dirpath, f), "rb") as fh:
                    digest.update(f.encode() + b"\0" + fh.read())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "threads": wl.threads if wl.threads is not None else "cli default",
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# -- main -----------------------------------------------------------------------------


def fmt(v):
    return "n/a" if v is None else f"{v:.6g}"


def main(argv=None):
    if not os.path.isfile(BENCH_FILE):
        return fail(f"no {BENCH_FILE}")
    with open(BENCH_FILE) as fh:
        bench = json.load(fh)
    args = parse_args(argv, bench["run_seconds"])
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tunnelvision", "__init__.py")):
        return fail("no tunnelvision sources under ./src; run from the repository root")
    sys.path.insert(0, os.path.join(root, "src"))
    if args.probe:
        return probe(args, root)
    import workloads
    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; "
                    f"choose from {', '.join(workloads.WORKLOADS)}")

    setup_s, import_s = measure_setup(args, root)

    work = os.path.join(root, ".perfbench_work", f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        return measured_run(args, root, work, bench, setup_s, import_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:   # another run is using it
            pass


def measured_run(args, root, work, bench, setup_s, import_s):
    import tracing
    import workloads
    wl = build(args, root, work)
    acc = workloads.Accuracy()
    prov = provenance(args, root, wl)
    wl.warmup()

    layer, spans_path = None, None
    if args.trace:
        ops_a = run_phase(wl, acc, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        wl.tracer = tracer
        try:
            ops_b = run_phase(wl, acc, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
            wl.tracer = None
        layer = tracing.layer_metrics(tracer.spans, len(ops_b))
        layer.update(cli_metrics(ops_b, import_s))
        p50_a = statistics.median(o["wall"] for o in ops_a)
        p50_b = statistics.median(o["wall"] for o in ops_b)
        layer["trace.untraced_op_p50_s"] = p50_a
        layer["trace.op_p50_s"] = p50_b
        layer["trace.overhead_s"] = p50_b - p50_a
        out_dir = os.path.join(root, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        spans_path = os.path.join(out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans_path)
        ops, untraced = ops_a + ops_b, ops_a
    else:
        ops = run_phase(wl, acc, args.seconds)
        untraced = ops

    e2e, tail_info = end_to_end(untraced, wl, acc, setup_s)
    attempted = len(ops)
    failed = sum(1 for o in ops if o["failures"] or o["wrong"])
    wrong = [(o["label"], w) for o in ops for w in o["wrong"]]
    correct = not wrong

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={attempted} failed={failed} correct={str(correct).lower()}")
    for name, unit in END_TO_END:
        note = ""
        if name == "op_tail_s":
            note = (f"  (p{tail_info['op_tail_percentile']}, "
                    f"n={tail_info['op_samples']})")
        print(f"  {name:<22} {fmt(e2e[name]):>14} {unit}{note}")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    if layer is not None:
        for name in sorted(layer):
            print(f"  {name:<40} {fmt(layer[name]):>14} {units.get(name, '')}")
        print(f"  spans written to {os.path.relpath(spans_path, root)}")
    reasons = {}
    for o in ops:
        for f in o["failures"] + o["wrong"]:
            key = f"{o['label'].split()[0]}: {f}"
            reasons[key] = reasons.get(key, 0) + 1
    for key, n in sorted(reasons.items()):
        print(f"  failure x{n}: {key}")

    record = {"provenance": prov, "correct": correct, "attempted": attempted,
              "failed": failed, "end_to_end": e2e, "per_layer": layer,
              "units": dict(END_TO_END) | {n: units[n] for n in layer or ()},
              **tail_info,
              "ops": [[o["label"], o["wall"], o["cpu"]] for o in ops]}
    print("perfbench-record " + json.dumps(record))

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    values = layer if args.trace else e2e
    metrics = {}
    for m in wanted:
        v = values.get(m["name"])
        if v is None:
            return fail(f"metric {m['name']} is not defined on this workload")
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def cli_metrics(ops, import_s):
    """CLI process split: whole process, the manifest's own wall time, the rest."""
    proc, wall, start = [], [], []
    for o in ops:
        out = o.get("out")
        if not out:
            continue
        proc.append(out["process_s"])
        man = out.get("manifest")
        if man is not None:
            wall.append(man["wall_time_s"])
            start.append(out["process_s"] - man["wall_time_s"])
    med = statistics.median
    return {"cli.process_s": med(proc) if proc else 0.0,
            "cli.manifest_wall_s": med(wall) if wall else 0.0,
            "cli.startup_s": med(start) if start else 0.0,
            "cli.import_s": import_s}


if __name__ == "__main__":
    sys.exit(main())

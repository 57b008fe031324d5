"""Command-line front end: named experiments in, CSV/JSON artifacts out.

Exit codes: 0 success, 1 error (bad usage, malformed input), 2 numerically
inconclusive (the requested tolerance could not separate the outcome).
Each command computes and writes its outputs and returns its exit code, its
manifest parameters and its output names; :func:`main` times the command and
writes the RunManifest next to those outputs.  Re-running with the same
parameters reproduces the output files byte for byte.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import runio
from .critical import (GridSpec, almost_kahler_verdict, axis_profile,
                       dogbone_experiment)
from .domains import domain_from_obj
from .greens import (NonConvergentSeriesError, PoleCollisionError,
                     find_quantizable, green_flux, h3_green,
                     quantization_sum, quotient_green)
from .groups import (enumerate_group, limit_set_sample, orbit_cloud,
                     regular_polygon, side_pairing_generators)
from .hyperbolic import DiskPoint, H3Point
from .measure import QuadratureConfig, harmonic_measure

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONCLUSIVE = 2


class CliError(Exception):
    """User-facing error; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the tool reserves 2 for
    # "numerically inconclusive", so remap usage problems to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


def _add_quadrature(p):
    p.add_argument("--tol", type=float, default=1e-7,
                   help="bound on the reported error of a measure value")


def _config(args) -> QuadratureConfig:
    return QuadratureConfig(tolerance=args.tol)


def _load_domain(path):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read domain file: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(f"malformed JSON in {path} at line {exc.lineno} "
                       f"column {exc.colno}: {exc.msg}")
    try:
        return domain_from_obj(obj)
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise CliError(f"invalid domain specification in {path}: {exc}")


def _point(xyz) -> H3Point:
    try:
        return H3Point(float(xyz[0]), float(xyz[1]), float(xyz[2]))
    except ValueError as exc:
        raise CliError(str(exc))


def _out(args, name):
    os.makedirs(args.out_dir, exist_ok=True)
    return os.path.join(args.out_dir, name)


# -- commands -------------------------------------------------------------------


def cmd_dogbone(args):
    if not 0.0 < args.eps < 0.5:
        raise CliError(f"--eps must lie in (0, 1/2), got {args.eps}")
    report, profile = dogbone_experiment(args.eps, _config(args),
                                         n_samples=args.samples,
                                         refine_tol=args.refine_tol)
    report_path = _out(args, "report.json")
    runio.write_json(report_path, report.to_obj())
    profile_path = _out(args, "axis_profile.csv")
    runio.write_csv(profile_path,
                    ["z [model units]", "f [dimensionless]",
                     "err [dimensionless]"],
                    profile.rows())
    conclusive_cps = [c for c in report.critical_points if c.conclusive]
    ok = (not report.inconclusive and report.inequality_holds
          and len(conclusive_cps) >= 2)
    return (EXIT_OK if ok else EXIT_INCONCLUSIVE,
            {"eps": args.eps, "samples": args.samples,
             "refine_tol": args.refine_tol},
            ["report.json", "axis_profile.csv"])


def cmd_measure(args):
    domain = _load_domain(args.domain)
    mv = harmonic_measure(domain, _point(args.point), _config(args))
    print(f"{mv.value:.17g} {mv.error:.17g}")
    return (EXIT_OK if mv.converged else EXIT_INCONCLUSIVE,
            {"domain": args.domain, "point": list(args.point)}, [])


def cmd_profile(args):
    domain = _load_domain(args.domain)
    prof = axis_profile(domain, args.z_min, args.z_max, args.n, _config(args))
    path = _out(args, args.out)
    runio.write_csv(path, ["z [model units]", "f [dimensionless]",
                           "err [dimensionless]"], prof.rows())
    return (EXIT_OK if prof.converged.all() else EXIT_INCONCLUSIVE,
            {"domain": args.domain, "z_min": args.z_min, "z_max": args.z_max,
             "n": args.n}, [args.out])


def cmd_critical(args):
    if args.grid_n < 2:
        raise CliError(f"--grid-n must be >= 2, got {args.grid_n}")
    domain = _load_domain(args.domain)
    grid = GridSpec.for_domain(domain, args.grid_n)
    verdict = almost_kahler_verdict(domain, grid, _config(args))
    path = _out(args, "verdict.json")
    runio.write_json(path, verdict.to_obj())
    inconclusive = (any(not r.conclusive for r in verdict.reports)
                    or verdict.coverage["nonconverged_evaluations"] > 0)
    return (EXIT_INCONCLUSIVE if inconclusive else EXIT_OK,
            {"domain": args.domain, "grid_n": args.grid_n}, ["verdict.json"])


def cmd_polygon(args):
    if args.genus < 2:
        raise CliError(f"--genus must be >= 2, got {args.genus}")
    data = regular_polygon(args.genus)
    path = _out(args, "polygon.json")
    runio.write_json(path, data.to_obj())
    return EXIT_OK, {"genus": args.genus}, ["polygon.json"]


def cmd_group(args):
    if args.genus < 2:
        raise CliError(f"--genus must be >= 2, got {args.genus}")
    if args.depth < 1:
        raise CliError(f"--depth must be >= 1, got {args.depth}")
    gens = side_pairing_generators(args.genus)
    if args.mode == "orbit":
        elements = enumerate_group(gens, args.depth)
        pts = orbit_cloud(elements, DiskPoint(0j))
        lengths = elements.lengths.tolist()
    else:
        pts = limit_set_sample(args.genus, args.depth)
        lengths = [args.depth] * len(pts)
    name = f"{args.mode}.csv"
    path = _out(args, name)
    runio.write_csv(path, ["re [disk coords]", "im [disk coords]",
                           "word_length [letters]"],
                    [(float(p.real), float(p.imag), n)
                     for p, n in zip(pts, lengths)])
    return (EXIT_OK,
            {"genus": args.genus, "depth": args.depth, "mode": args.mode},
            [name])


def cmd_green(args):
    pole = _point(args.pole)
    if args.green_mode == "flux":
        flux = green_flux(pole, args.radius, args.n)
        obj = {"mode": "flux", "pole": [pole.x, pole.y, pole.z],
               "radius": args.radius, "quad_n": args.n, "flux": flux}
        params = {"radius": args.radius, "n": args.n}
    elif args.green_mode == "eval":
        q = _point(args.point)
        try:
            value = h3_green(pole, q)
        except PoleCollisionError as exc:
            raise CliError(str(exc))
        obj = {"mode": "eval", "pole": [pole.x, pole.y, pole.z],
               "point": [q.x, q.y, q.z], "value": value}
        params = {"point": list(args.point)}
    else:  # quotient
        q = _point(args.point)
        gens = side_pairing_generators(args.genus)
        elements = enumerate_group(gens, args.shells)
        try:
            sv = quotient_green(elements, pole, q, args.shells)
        except (PoleCollisionError, NonConvergentSeriesError) as exc:
            raise CliError(str(exc))
        obj = {"mode": "quotient", "genus": args.genus, "shells": args.shells,
               "pole": [pole.x, pole.y, pole.z], "point": [q.x, q.y, q.z],
               "value": sv.value, "tail_estimate": sv.tail_estimate,
               "shell_sums": list(sv.shell_sums)}
        params = {"genus": args.genus, "shells": args.shells,
                  "point": list(args.point)}
    path = _out(args, "green.json")
    runio.write_json(path, obj)
    params["pole"] = list(args.pole)
    return EXIT_OK, params, ["green.json"]


def cmd_quantize(args):
    domain = _load_domain(args.domain)
    if args.k < 2:
        raise CliError(f"--k must be >= 2, got {args.k}")
    if not 1 <= args.ell <= args.k - 1:
        raise CliError(f"--ell must satisfy 1 <= ell <= k-1, got {args.ell}")
    config = _config(args)
    pts = find_quantizable(domain, args.k, args.ell, config)
    qr = quantization_sum(pts)
    path = _out(args, "configuration.json")
    runio.write_json(path, pts.to_obj(ell=qr.ell, total=qr.total))
    return (EXIT_OK if qr.is_quantizable and qr.converged else EXIT_INCONCLUSIVE,
            {"domain": args.domain, "k": args.k, "ell": args.ell},
            ["configuration.json"])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tunnelvision",
                     description="Harmonic measure on hyperbolic 3-space: "
                                 "profiles, critical points, surface groups, "
                                 "Green's potentials.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dogbone", help="run the dogbone critical-point experiment")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--refine-tol", type=float, default=1e-6)
    _add_quadrature(p)
    p.set_defaults(fn=cmd_dogbone)

    p = sub.add_parser("measure", help="harmonic measure at one point")
    p.add_argument("--domain", required=True)
    p.add_argument("--point", nargs=3, type=float, required=True,
                   metavar=("X", "Y", "Z"))
    _add_quadrature(p)
    p.set_defaults(fn=cmd_measure)

    p = sub.add_parser("profile", help="axis profile to CSV")
    p.add_argument("--domain", required=True)
    p.add_argument("--z-min", type=float, required=True)
    p.add_argument("--z-max", type=float, required=True)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--out", default="profile.csv")
    _add_quadrature(p)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("critical", help="critical-point search and verdict")
    p.add_argument("--domain", required=True)
    p.add_argument("--grid-n", type=int, default=20)
    _add_quadrature(p)
    p.set_defaults(fn=cmd_critical)

    p = sub.add_parser("polygon", help="regular 4g-gon data")
    p.add_argument("--genus", type=int, required=True)
    p.set_defaults(fn=cmd_polygon)

    p = sub.add_parser("group", help="orbit or limit-set cloud to CSV")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--mode", choices=["orbit", "limitset"], default="orbit")
    p.set_defaults(fn=cmd_group)

    p = sub.add_parser("green", help="Green's function fluxes and values")
    p.add_argument("green_mode", choices=["flux", "eval", "quotient"])
    p.add_argument("--pole", nargs=3, type=float, required=True,
                   metavar=("X", "Y", "Z"))
    p.add_argument("--point", nargs=3, type=float, metavar=("X", "Y", "Z"))
    p.add_argument("--radius", type=float, default=0.5)
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--genus", type=int, default=2)
    p.add_argument("--shells", type=int, default=6)
    p.set_defaults(fn=cmd_green)

    p = sub.add_parser("quantize", help="find a quantizable configuration")
    p.add_argument("--domain", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    _add_quadrature(p)
    p.set_defaults(fn=cmd_quantize)

    for p in sub.choices.values():
        p.add_argument("--out-dir", default=".",
                       help="directory for output files")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        command = args.command
        if command == "green":
            if args.green_mode in ("eval", "quotient") and args.point is None:
                raise CliError("green eval/quotient requires --point")
            command = f"green {args.green_mode}"
        started = time.monotonic()
        code, parameters, outputs = args.fn(args)
        tolerances = {"tolerance": args.tol} if "tol" in args else {}
        man = runio.RunManifest(command, parameters, tolerances,
                                outputs=outputs)
        man.finish(started, args.out_dir, args.command)
        return code
    except (CliError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

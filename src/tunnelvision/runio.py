"""Run manifests and deterministic JSON/CSV writers.

All floating-point output is written with 17 significant digits so files
round-trip exactly.  CSV files use comma separators, '.' decimal points and
LF line endings.  Everything runs in the calling thread: multi-point work is
one array evaluation of the measure's boundary sum instead of spread over a
pool, so outputs are byte-identical from run to run.  The only other pool is
OpenBLAS's, which loads with one thread unless the user set its size (see
the package docstring); results do not depend on its size.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

__version__ = "0.1.0"

__all__ = ["RunManifest", "dump_json", "write_json", "write_csv", "pmap",
           "__version__"]


def pmap(fn, items, threads: int = 1):
    """Ordered map over items in the calling thread; ``threads`` has no effect."""
    return [fn(it) for it in items]


def _fmt_float(v: float) -> str:
    if math.isnan(v):
        return "null"
    if math.isinf(v):
        return '"Infinity"' if v > 0 else '"-Infinity"'
    return format(v, ".17g")


def dump_json(obj, indent: int = 0) -> str:
    """Serialize with floats at 17 significant digits; deterministic layout."""
    pad = " " * indent
    if isinstance(obj, dict):
        items = [f'{pad}  {json.dumps(str(k))}: {dump_json(v, indent + 2).lstrip()}'
                 for k, v in obj.items()]
        if not items:
            return pad + "{}"
        return pad + "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        items = [dump_json(v, indent + 2) for v in obj]
        if not items:
            return pad + "[]"
        return pad + "[\n" + ",\n".join(items) + "\n" + pad + "]"
    # numpy scalars arrive here too: match by abstract numeric type, with
    # booleans checked first (numpy bools are not subclasses of bool)
    if isinstance(obj, bool) or (hasattr(obj, "dtype") and obj.shape == ()
                                 and obj.dtype.kind == "b"):
        return pad + ("true" if obj else "false")
    if isinstance(obj, numbers.Integral):
        return pad + str(int(obj))
    if isinstance(obj, numbers.Real):
        return pad + _fmt_float(float(obj))
    if obj is None:
        return pad + "null"
    return pad + json.dumps(str(obj))


def write_json(path, obj):
    with open(path, "w", newline="\n") as fh:
        fh.write(dump_json(obj))
        fh.write("\n")


def write_csv(path, header, rows):
    """CSV with a header row naming columns and units; 17-digit floats."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [format(c, ".17g") if isinstance(c, float) else str(c)
                     for c in row]
            fh.write(",".join(cells) + "\n")


def _environment() -> dict:
    """The Python and numpy versions and the core count of this process."""
    return {"python": "{}.{}.{}".format(*sys.version_info[:3]),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count()}


@dataclass
class RunManifest:
    """Reproducibility record written alongside every CLI output."""

    command: str
    parameters: dict
    tolerances: dict
    version: str = __version__
    wall_time_s: float = 0.0
    outputs: list = field(default_factory=list)
    environment: dict = field(default_factory=_environment)

    def finish(self, started: float, out_dir: str, stem: str):
        self.wall_time_s = time.monotonic() - started
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{stem}.manifest.json")
        write_json(path, asdict(self))
        return path

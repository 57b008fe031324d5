#!/usr/bin/env python3
"""Run the tunnelvision CLI under the span tracer and save its spans.

Used by the cli-oneshot workload in traced runs, in place of
``python3 -m tunnelvision.cli``.  Run from the repository root:

    python3 perfbench/cli_shim.py SPANS.json measure --domain d.json --point 0 0 1
"""

import os
import sys


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    from tunnelvision import cli
    try:
        return cli.main(argv)
    finally:
        tracer.write(spans_path)


if __name__ == "__main__":
    sys.exit(main())

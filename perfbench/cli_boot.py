"""Traced stand-in for ``python -m cotstab.cli`` in a fresh interpreter.

Usage: ``python3 perfbench/cli_boot.py SPANS.npz ARGS...``.  Times the
import of ``cotstab.cli``, installs the tracer's wrappers, runs the CLI's
``main`` with ARGS and writes the spans, counters and import time to
SPANS.npz before exiting with the CLI's exit code.
"""

import os
import sys
import time

t0 = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import cotstab.cli  # noqa: E402

import_s = time.perf_counter() - t0

sys.path.insert(0, HERE)
import json  # noqa: E402

import numpy as np  # noqa: E402

from tracing import Tracer, save  # noqa: E402


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = cotstab.cli.main(argv)
    finally:
        tracer.uninstall()
        rec = tracer.export()
        save(rec, out_path, counters=json.dumps(rec["counters"]),
             import_s=np.float64(import_s))
    return code


if __name__ == "__main__":
    sys.exit(main())

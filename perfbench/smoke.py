"""Smoke check: every workload at its smallest size, both output modes.

Usage: ``python3 perfbench/smoke.py``.  Runs each workload for one round
(``--seconds 1``) with ``--trace 0`` and ``--trace 1`` and asserts that
the result line has exactly the keys run.py documents, that every operation
passed its check, and that every end-to-end and per-layer metric named in
``BENCHMARK.json`` appears with its unit (and no other metric does).  Also
asserts that ``BENCHMARK.json`` and ``metrics.py`` name the same metrics.
Exits non-zero on the first mismatch.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from run import WORKLOADS  # noqa: E402


def check(cond: bool, message: str):
    if not cond:
        raise SystemExit(f"smoke: {message}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    named = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    check(named[0] == END_TO_END, "end_to_end differs from metrics.py")
    check(named[1] == PER_LAYER, "per_layer differs from metrics.py")
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "workloads differ from run.py")
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"),
                   "--workload", workload, "--seed", "1", "--seconds", "1",
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=180)
            where = f"{workload} --trace {trace}"
            check(proc.returncode == 0, f"{where} exited {proc.returncode}: "
                  f"{proc.stderr.strip()}")
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(out) == {"correct", "attempted", "failed", "metrics"},
                  f"{where}: keys {sorted(out)}")
            check(out["correct"] and out["failed"] == 0,
                  f"{where}: {out['failed']} failed\n{proc.stderr}")
            check(out["attempted"] >= 1, f"{where}: nothing attempted")
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            check(got == named[trace], f"{where}: metrics {sorted(got)}")
            check(all(math.isfinite(v["value"])
                      for v in out["metrics"].values()),
                  f"{where}: non-finite metric")
            print(f"ok {where}: {out['attempted']} operations")
    return 0


if __name__ == "__main__":
    sys.exit(main())

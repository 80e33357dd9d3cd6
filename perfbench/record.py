"""Run the benchmark over several seeds and report how steady it is.

Usage::

    python3 perfbench/record.py [--seeds 10] [--first-seed 1]
        [--workloads onset harmonic ...] [--write]

Runs ``run.py --trace 0`` once per seed and workload, one at a time, then
one ``--trace 1`` run per workload.  For each end-to-end metric it prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
quartile spread as a share of the median next to the metric's bound.  It
also prints the layer shares that show which layer each workload stresses.
With ``--write`` the host description, the medians, spreads and traced
per-layer values go to ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import THREAD_VARS, WORKLOADS  # noqa: E402


def bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not out["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {out['failed']} failed "
                           f"operations\n{proc.stderr}")
    return out


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def layer_shares(workload: str, layer: dict) -> dict:
    """What shows that a workload stresses the layer it was chosen for.

    Shares are of the traced operation time: simulate's inclusive time
    (its event location calls find_root), harmonic's self time (series
    and gains), and on cli the import of a fresh interpreter.
    """
    op = layer["trace.op_s"]
    simulate = 1e-6 * layer["simulate.us_per_cycle"] * layer["simulate.cycles"]
    harmonic = layer["harmonic.series.self_s"] + layer["harmonic.scheme_gain.self_s"]
    out = {"simulate_share": simulate / op, "harmonic_share": harmonic / op,
           "simulate.cycles": layer["simulate.cycles"],
           "harmonic.scheme_gain.calls": layer["harmonic.scheme_gain.calls"]}
    if workload == "cli":
        out["cli_import_share"] = layer["cli.import_s"] / op
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def host() -> dict:
    import numpy
    import scipy
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_thread_vars": {var: "1" for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS),
                        choices=WORKLOADS)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    spec = bench_spec()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    record = {"host": host(), "run_seconds": seconds, "seeds": list(seeds),
              "workloads": {}}
    for workload in args.workloads:
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        stats = {}
        print(f"{workload}: attempted per run "
              f"{[r['attempted'] for r in runs]}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            stats[name] = spread(values)
            s = stats[name]
            print(f"  {name:12s} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} "
                  f"spread {s['spread']:.4f} (bound {bound}, "
                  f"target < {bound / 3:.4f})")
        traced = run_once(workload, args.first_seed, seconds, 1)
        layer = {k: v["value"] for k, v in traced["metrics"].items()}
        shares = layer_shares(workload, layer)
        print("  traced: " + ", ".join(f"{k} {v:.4g}" for k, v in
                                       shares.items())
              + f", overhead {layer['trace.overhead']:.3f}")
        record["workloads"][workload] = {
            "why": why[workload],
            "attempted_per_run": [r["attempted"] for r in runs],
            "end_to_end": stats,
            "per_layer_seed": args.first_seed,
            "per_layer": layer,
            "layer_shares": shares,
        }
    if args.write:
        path = os.path.join(HERE, "baseline.json")
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

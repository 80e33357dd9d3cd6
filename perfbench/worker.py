"""One workload in a fresh interpreter: set-up, then the timed passes.

Usage: ``python3 perfbench/worker.py WORKLOAD SEED SECONDS TRACE [--setup-only]``
(``run.py`` starts it).  Prints ``READY`` once set-up is done and the first
timed operation is ready (import, inputs, references and one warm-up call),
then, unless ``--setup-only``, one line ``RESULT <json>`` after the passes.

With TRACE 0 the whole window is one untraced pass.  With TRACE 1 the
first half is untraced and the second half runs with the tracer installed;
the ratio of their throughputs is the tracing overhead.  A pass runs
whole rounds until its share of the window has elapsed.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
MAX_LISTED = 20


class Pass:
    """Latencies, errors and failures of one timed pass."""

    def __init__(self):
        self.latencies: list[float] = []
        self.worst = 0.0
        self.failures: list[str] = []
        self.rounds = 0


def run_op(op, tracer, result: Pass):
    t0 = time.perf_counter()
    try:
        out = op.call()
    except Exception as exc:  # a raise is a counted failure, never fatal
        result.latencies.append(time.perf_counter() - t0)
        result.failures.append(f"{op.kind} {op.inputs}: raised "
                               f"{type(exc).__name__}: {exc}")
        return
    result.latencies.append(time.perf_counter() - t0)
    if tracer is not None:
        tracer.enabled = False
    try:
        items = op.check(out)
    except Exception as exc:
        result.failures.append(f"{op.kind} {op.inputs}: check could not run: "
                               f"{type(exc).__name__}: {exc}")
        return
    finally:
        if tracer is not None:
            tracer.enabled = True
    bad = [f"{label}: error {err:.3e} > bound {bound:.3e}"
           for label, err, bound in items if not err <= bound]
    finite = [err for _, err, _ in items if math.isfinite(err)]
    result.worst = max([result.worst, *finite])
    if bad:
        result.failures.append(f"{op.kind} {op.inputs}: " + "; ".join(bad))


def timed_pass(wl, seconds: float, first_round: int, tracer=None) -> Pass:
    result = Pass()
    start = time.perf_counter()
    r = first_round
    while True:
        if tracer is not None:
            tracer.enabled = False
        ops = wl.rounds(r)
        if tracer is not None:
            tracer.enabled = True
        for op in ops:
            run_op(op, tracer, result)
        r += 1
        result.rounds += 1
        if time.perf_counter() - start >= seconds:
            return result


def peak_rss_mb(with_children: bool) -> float:
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kb = max(kb, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def traced_pass(wl, seconds, first_round, tracing):
    """Second half of a TRACE 1 run; returns the pass, spans and import time."""
    if wl.runner is not None:
        wl.runner.trace_dir = OUT
        traced = timed_pass(wl, seconds, first_round)
        files, wl.runner.trace_files = wl.runner.trace_files, []
        wl.runner.trace_dir = None
        records = [tracing.load(path) for path in files]
        for path in files:
            os.remove(path)
        rec = tracing.merge(records)
        import_s = (sum(float(r["import_s"]) for r in records) / len(records)
                    if records else 0.0)
        return traced, rec, import_s
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = timed_pass(wl, seconds, first_round, tracer)
    finally:
        tracer.uninstall()
    return traced, tracer.export(), None


def main(argv) -> int:
    name, seed, seconds, trace = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    setup_only = "--setup-only" in argv[4:]
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import cotstab
    import_s = time.perf_counter() - t0
    if not os.path.abspath(cotstab.__file__).startswith(SRC + os.sep):
        print(f"cotstab imported from {cotstab.__file__}, not {SRC}",
              file=sys.stderr)
        return 3

    import metrics
    import tracing
    import workloads

    wl = workloads.make(name, seed, ROOT)
    warm = Pass()
    run_op(wl.warm_up(), None, warm)
    if warm.failures:
        print("warm-up failed: " + warm.failures[0], file=sys.stderr)
        return 4
    print("READY", flush=True)
    if setup_only:
        return 0

    os.makedirs(OUT, exist_ok=True)
    window = seconds / 2.0 if trace else seconds
    untraced = timed_pass(wl, window, 0)
    passes = [untraced]
    per_layer = None
    extra = wl.after()
    share = (extra["raised"] / extra["tried"]) if extra.get("tried") else 0.0
    if trace:
        traced, rec, child_import_s = traced_pass(wl, window, untraced.rounds,
                                                  tracing)
        passes.append(traced)
        tracing.save(rec, os.path.join(OUT, f"spans-{name}.npz"))
        fast = metrics.latency_metrics(untraced.latencies)["ops_per_s"]
        slow = metrics.latency_metrics(traced.latencies)["ops_per_s"]
        n = len(traced.latencies)
        per_layer = metrics.layer_metrics(
            rec, n,
            import_s=child_import_s if child_import_s is not None else import_s,
            overhead=fast / slow - 1.0,
            fail_ratio=len(traced.failures) / n,
            op_s=sum(traced.latencies) / n,
            nan_bracket_share=share)
    failures = [f for p in passes for f in p.failures]
    result = {
        "attempted": sum(len(p.latencies) for p in passes),
        "failed": len(failures),
        "failures": failures[:MAX_LISTED],
        "rounds": [p.rounds for p in passes],
        "ops": len(untraced.latencies),
        "latency": metrics.latency_metrics(untraced.latencies),
        "max_rel_err": max(p.worst for p in passes),
        "peak_rss_mb": peak_rss_mb(wl.runner is not None),
        "per_layer": per_layer,
        "known_defect": {k: v for k, v in extra.items() if k != "inputs"},
        "known_defect_inputs": extra.get("inputs", [])[:MAX_LISTED],
    }
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

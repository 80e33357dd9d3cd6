"""Names and units of the reported metrics, and how they are derived.

End-to-end metrics come from the untraced timed pass; per-layer metrics
from the traced pass (``tracing``).  Per-layer counts and self times are
per timed operation (``/op``), so runs that complete different numbers of
operations compare directly.  ``cli.import_s`` is the import time of the
package in a fresh interpreter: the mean over the CLI's child interpreters
on the cli workload, the worker's own import on the others.
"""

from __future__ import annotations

import numpy as np

from tracing import layer_totals

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "max_rel_err": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# name -> (unit, span name or None, field)
_SPAN_METRICS = {
    "linalg.expm.calls": ("count/op", "linalg.expm", "spans"),
    "linalg.expm_integral.calls": ("count/op", "linalg.expm_integral", "spans"),
    "linalg.solve_linear.calls": ("count/op", "linalg.solve_linear", "spans"),
    "linalg.eigenvalues.calls": ("count/op", "linalg.eigenvalues", "spans"),
    "linalg.find_root.calls": ("count/op", "linalg.find_root", "spans"),
    "linalg.find_root.self_s": ("s/op", "linalg.find_root", "self_s"),
    "models.build_model.calls": ("count/op", "models.build_model", "spans"),
    "models.build_model.self_s": ("s/op", "models.build_model", "self_s"),
    "sampled.steady_state_at.calls": ("count/op", "sampled.steady_state_at", "spans"),
    "sampled.steady_state_at.self_s": ("s/op", "sampled.steady_state_at", "self_s"),
    "sampled.consistent_vc.calls": ("count/op", "sampled.consistent_vc", "spans"),
    "sampled.consistent_vc.self_s": ("s/op", "sampled.consistent_vc", "self_s"),
    "sampled.linearize.calls": ("count/op", "sampled.linearize", "spans"),
    "sampled.linearize.self_s": ("s/op", "sampled.linearize", "self_s"),
    "bifurcation.boundary.calls": ("count/op", "bifurcation.boundary", "spans"),
    "bifurcation.boundary.self_s": ("s/op", "bifurcation.boundary", "self_s"),
    "bifurcation.search.self_s": ("s/op", "bifurcation.search", "self_s"),
    "harmonic.series.self_s": ("s/op", "harmonic.series", "self_s"),
    "harmonic.scheme_gain.calls": ("count/op", "harmonic.scheme_gain", "spans"),
    "harmonic.scheme_gain.self_s": ("s/op", "harmonic.scheme_gain", "self_s"),
    "simulate.simulate.calls": ("count/op", "simulate.simulate", "spans"),
    "simulate.simulate.self_s": ("s/op", "simulate.simulate", "self_s"),
    "cases.run_cases.self_s": ("s/op", "cases.run_cases", "self_s"),
    "cli.main.calls": ("count/op", "cli.main", "spans"),
    "cli.main.self_s": ("s/op", "cli.main", "self_s"),
    "tables.write_table.calls": ("count/op", "tables.write_table", "spans"),
    "tables.write_table.self_s": ("s/op", "tables.write_table", "self_s"),
}

PER_LAYER = {name: spec[0] for name, spec in _SPAN_METRICS.items()}
PER_LAYER.update({
    "linalg.expm.self_s": "s/op",
    "linalg.find_root.evals": "count/op",
    "bifurcation.search.evals_per_call": "count/call",
    "bifurcation.search.nan_bracket_share": "ratio",
    "harmonic.series.calls": "count/op",
    "harmonic.gain_calls_per_series": "count/call",
    "simulate.cycles": "count/op",
    "simulate.us_per_cycle": "us",
    "simulate.refine_evals_per_cycle": "count/cycle",
    "simulate.probes": "count/op",
    "simulate.escalated_runs": "count/op",
    "simulate.escalated_cycle_share": "ratio",
    "simulate.undecided_ratio": "ratio",
    "simulate.missed_switching": "count/op",
    "cli.import_s": "s",
    "tables.rows": "count/op",
    "trace.ops": "count",
    "trace.op_s": "s/op",
    "trace.overhead": "ratio",
    "checks.fail_ratio": "ratio",
})


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def latency_metrics(latencies: list[float]) -> dict[str, float]:
    lat = np.asarray(latencies, dtype=float)
    return {
        "ops_per_s": _ratio(len(lat), float(lat.sum())),
        "op_p50_ms": 1e3 * float(np.percentile(lat, 50)),
        "op_p90_ms": 1e3 * float(np.percentile(lat, 90)),
    }


def layer_metrics(rec: dict, ops: int, import_s: float, overhead: float,
                  fail_ratio: float, op_s: float,
                  nan_bracket_share: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass of ``ops`` operations."""
    totals = layer_totals(rec)
    c = rec["counters"]
    out = {}
    for name, (_, span, fld) in _SPAN_METRICS.items():
        out[name] = _ratio(totals[span][fld], ops)
    out["linalg.expm.self_s"] = _ratio(
        totals["linalg.expm"]["self_s"]
        + totals["linalg.expm_integral"]["self_s"], ops)
    out["linalg.find_root.evals"] = _ratio(c.get("find_root.evals", 0), ops)
    out["bifurcation.search.evals_per_call"] = _ratio(
        c.get("search.evals", 0), c.get("search.calls", 0))
    out["bifurcation.search.nan_bracket_share"] = nan_bracket_share
    series_calls = c.get("harmonic.series.outer_calls", 0)
    out["harmonic.series.calls"] = _ratio(series_calls, ops)
    out["harmonic.gain_calls_per_series"] = _ratio(
        totals["harmonic.scheme_gain"]["spans"], series_calls)
    cycles = c.get("simulate.cycles", 0)
    out["simulate.cycles"] = _ratio(cycles, ops)
    out["simulate.us_per_cycle"] = 1e6 * _ratio(
        totals["simulate.simulate"]["total_s"], cycles)
    out["simulate.refine_evals_per_cycle"] = _ratio(
        c.get("find_root.evals_in_simulate", 0), cycles)
    out["simulate.probes"] = _ratio(c.get("onset.probes", 0), ops)
    out["simulate.escalated_runs"] = _ratio(
        c.get("simulate.escalated_runs", 0), ops)
    out["simulate.escalated_cycle_share"] = _ratio(
        c.get("simulate.escalated_cycles", 0), cycles)
    out["simulate.undecided_ratio"] = _ratio(c.get("classify.other", 0),
                                             c.get("classify.calls", 0))
    out["simulate.missed_switching"] = _ratio(
        c.get("simulate.simulate.raised.MissedSwitchingError", 0), ops)
    out["cli.import_s"] = import_s
    out["tables.rows"] = _ratio(c.get("tables.rows", 0), ops)
    out["trace.ops"] = float(ops)
    out["trace.op_s"] = op_s
    out["trace.overhead"] = overhead
    out["checks.fail_ratio"] = fail_ratio
    return out

"""Span tracing of the cotstab modules, installed from outside the package.

Each public function of interest is wrapped, and the wrapper is bound in
place of the original in every cotstab module namespace that holds it
(``expm``, for one, is imported separately into ``sampled``,
``bifurcation`` and ``simulate``).  A wrapper records one span: layer name,
start, end and the index of the enclosing span.  Spans are kept in flat
arrays, so a run of a million calls stays small, and are written out when
the run ends; self times are derived from them afterwards.  Counts that a
span cannot carry (root-finder residual evaluations, onset probes,
escalated simulation runs) are kept as counters at the same boundaries.

The tracer does nothing to the package until :meth:`Tracer.install` runs,
so the untraced timed pass never sees a wrapper.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

import numpy as np

# (module, function) -> layer span name.  Several functions share a span
# name when they make up one layer metric.
SPAN_NAMES = {
    ("linalg", "expm"): "linalg.expm",
    ("linalg", "expm_integral"): "linalg.expm_integral",
    ("linalg", "solve_linear"): "linalg.solve_linear",
    ("linalg", "eigenvalues"): "linalg.eigenvalues",
    ("linalg", "find_root"): "linalg.find_root",
    ("models", "build_model"): "models.build_model",
    ("sampled", "steady_state_at"): "sampled.steady_state_at",
    ("sampled", "consistent_vc"): "sampled.consistent_vc",
    ("sampled", "linearize"): "sampled.linearize",
    ("bifurcation", "pdb_boundary_exact"): "bifurcation.boundary",
    ("bifurcation", "snb_boundary_exact"): "bifurcation.boundary",
    ("bifurcation", "s_exact"): "bifurcation.boundary",
    ("bifurcation", "critical_ramp_eig"): "bifurcation.search",
    ("bifurcation", "pdb_onset_duty"): "bifurcation.search",
    ("bifurcation", "range_max_pdb_ramp"): "bifurcation.search",
    ("bifurcation", "exact_max_on_time"): "bifurcation.search",
    ("bifurcation", "exact_min_ri"): "bifurcation.search",
    ("harmonic", "hb_pdb_splot"): "harmonic.series",
    ("harmonic", "hb_snb_condition"): "harmonic.series",
    ("harmonic", "h_plot"): "harmonic.series",
    ("harmonic", "l2_plot"): "harmonic.series",
    ("harmonic", "scheme_gain"): "harmonic.scheme_gain",
    ("harmonic", "scheme_gain_derivative"): "harmonic.scheme_gain",
    ("simulate", "simulate"): "simulate.simulate",
    ("simulate", "classify_orbit"): "simulate.classify_orbit",
    ("simulate", "onset_search"): "simulate.onset_search",
    ("cases", "run_cases"): "cases.run_cases",
    ("cli", "main"): "cli.main",
    ("tables", "write_table"): "tables.write_table",
}

NAMES = sorted(set(SPAN_NAMES.values()))
_NAME_ID = {name: i for i, name in enumerate(NAMES)}

# spans whose nesting inside an outer span of the same name is not a new call
_OUTERMOST_ONLY = {"harmonic.series"}


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self):
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.names = array("h")
        self.counters: Counter = Counter()
        self.enabled = False
        self._stack: list[int] = []
        self._active = [0] * len(NAMES)
        self._search_cycles: list[int] = []
        self._originals: list[tuple] = []

    # -- span recording ---------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.starts)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.names.append(nid)
        self.ends.append(0.0)
        self._stack.append(idx)
        self._active[nid] += 1
        self.starts.append(time.perf_counter())
        return idx

    def _close(self, idx: int, nid: int):
        self.ends[idx] = time.perf_counter()
        self._active[nid] -= 1
        self._stack.pop()

    def _wrap(self, name: str, fn):
        nid = _NAME_ID[name]
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        failed = getattr(self, "_failed_" + name.replace(".", "_"), None)
        outer_only = name in _OUTERMOST_ONLY

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if outer_only and self._active[nid] == 0:
                self.counters[name + ".outer_calls"] += 1
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                self._close(idx, nid)
                self.counters[name + ".raised." + type(exc).__name__] += 1
                if failed is not None:
                    failed()
                raise
            self._close(idx, nid)
            if after is not None:
                after(args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- per-function hooks ------------------------------------------------

    def _before_linalg_find_root(self, args, kwargs):
        f = args[0]
        counters = self.counters
        in_sim = self._active[_NAME_ID["simulate.simulate"]]

        def counted(x):
            counters["find_root.evals"] += 1
            if in_sim:
                counters["find_root.evals_in_simulate"] += 1
            return f(x)

        return (counted, *args[1:]), kwargs

    def _before_simulate_onset_search(self, args, kwargs):
        family = args[0]
        counters = self.counters

        def probe(value):
            counters["onset.probes"] += 1
            return family(value)

        cycles = kwargs.get("cycles", args[3] if len(args) > 3 else 3000)
        self._search_cycles.append(int(cycles))
        return (probe, *args[1:]), kwargs

    def _after_simulate_onset_search(self, args, kwargs, out):
        self._search_cycles.pop()

    def _failed_simulate_onset_search(self):
        self._search_cycles.pop()

    def _after_simulate_simulate(self, args, kwargs, trace):
        n = int(trace.ncycles)
        self.counters["simulate.cycles"] += n
        if self._search_cycles and n > self._search_cycles[-1]:
            self.counters["simulate.escalated_runs"] += 1
            self.counters["simulate.escalated_cycles"] += n

    def _after_simulate_classify_orbit(self, args, kwargs, label):
        self.counters["classify.calls"] += 1
        if label == "OTHER":
            self.counters["classify.other"] += 1

    def _before_bifurcation_boundary(self, args, kwargs):
        # one residual evaluation of a search: a boundary (design ladder)
        # or a Jacobian (eigenvalue search) inside a search span
        if self._active[_NAME_ID["bifurcation.search"]]:
            self.counters["search.evals"] += 1
        return args, kwargs

    _before_sampled_linearize = _before_bifurcation_boundary

    def _before_bifurcation_search(self, args, kwargs):
        if not self._active[_NAME_ID["bifurcation.search"]]:
            self.counters["search.calls"] += 1
        return args, kwargs

    def _after_tables_write_table(self, args, kwargs, text):
        table = args[0] if args else kwargs["table"]
        self.counters["tables.rows"] += len(table.rows)

    # -- installation --------------------------------------------------------

    def install(self):
        """Bind a wrapper in place of each traced function, everywhere.

        Walks every loaded ``cotstab`` module (reached through
        ``sys.modules``: the package attribute ``cotstab.simulate`` is the
        function, not the module) and replaces each reference to an
        original function by its wrapper.  Callers outside the package
        reach the functions through module attributes, so they see the
        wrappers too.
        """
        spaces = [vars(mod) for key, mod in list(sys.modules.items())
                  if key == "cotstab" or key.startswith("cotstab.")]
        for (mod_name, fn_name), span in SPAN_NAMES.items():
            module = sys.modules.get("cotstab." + mod_name)
            if module is None:
                continue
            orig = getattr(module, fn_name)
            wrapper = self._wrap(span, orig)
            for space in spaces:
                for key, value in list(space.items()):
                    if value is orig:
                        space[key] = wrapper
                        self._originals.append((space, key, orig))
        self.enabled = True

    def uninstall(self):
        for space, key, orig in reversed(self._originals):
            space[key] = orig
        self._originals.clear()
        self.enabled = False

    # -- export ---------------------------------------------------------------

    def export(self) -> dict:
        """Spans and counters as plain arrays, ready to save or merge."""
        return {
            "starts": np.frombuffer(self.starts, dtype=float).copy(),
            "ends": np.frombuffer(self.ends, dtype=float).copy(),
            "parents": np.asarray(self.parents, dtype=np.int64),
            "names": np.asarray(self.names, dtype=np.int64),
            "counters": dict(self.counters),
        }


def merge(records: list[dict]) -> dict:
    """Concatenate exported span sets, re-basing parent indices."""
    starts, ends, parents, names = [], [], [], []
    counters: Counter = Counter()
    offset = 0
    for rec in records:
        starts.append(rec["starts"])
        ends.append(rec["ends"])
        par = np.asarray(rec["parents"], dtype=np.int64)
        parents.append(np.where(par >= 0, par + offset, -1))
        names.append(np.asarray(rec["names"], dtype=np.int64))
        counters.update(rec["counters"])
        offset += len(rec["starts"])

    def cat(parts, dtype):
        return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)

    return {"starts": cat(starts, float), "ends": cat(ends, float),
            "parents": cat(parents, np.int64), "names": cat(names, np.int64),
            "counters": dict(counters)}


def layer_totals(rec: dict) -> dict[str, dict[str, float]]:
    """Per span name: number of spans, inclusive time and self time.

    Self time is a span's duration minus the durations of its direct
    children; calls are strictly nested on one thread, so the children
    never overlap.
    """
    dur = rec["ends"] - rec["starts"]
    parents = rec["parents"]
    child = np.zeros_like(dur)
    has_parent = parents >= 0
    np.add.at(child, parents[has_parent], dur[has_parent])
    self_time = dur - child
    names = rec["names"]
    out = {}
    for nid, name in enumerate(NAMES):
        mask = names == nid
        out[name] = {"spans": int(mask.sum()),
                     "total_s": float(dur[mask].sum()),
                     "self_s": float(self_time[mask].sum())}
    return out


def save(rec: dict, path: str, **extra):
    """Write spans (and any extra arrays) to a compressed ``.npz`` file."""
    np.savez_compressed(path, starts=rec["starts"], ends=rec["ends"],
                        parents=rec["parents"], names=rec["names"],
                        name_table=np.array(NAMES), **extra)


def load(path: str) -> dict:
    """Read a span file written by :func:`save` from a child interpreter."""
    with np.load(path, allow_pickle=False) as data:
        out = {key: data[key] for key in data.files}
    if list(out.pop("name_table")) != NAMES:
        raise ValueError(f"{path}: span names differ from this tracer's")
    out["counters"] = json.loads(str(out["counters"]))
    return out

"""Command line front end: one executable over every analysis route.

Each subcommand reads a flat ``key=value`` config file (``--set`` overrides
individual keys), runs one analysis, and emits a table as CSV or JSON with
units spelled out in the column names.  Exit codes: 0 success, 2 bad
configuration or usage, 3 numeric failure, 4 regression in the built-in
worked cases.  Set ``COTC_LOG=info`` or ``debug`` for progress on stderr.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .bifurcation import (FORMULA_IDS, applicable_formulas, closed_form_pole,
                          ct_pole_formula, equivalent_ct_pole,
                          exact_max_on_time, exact_min_ri, family_point,
                          max_on_time, min_ramp_formula, min_ramp_normalized,
                          min_sense_resistance, pdb_boundary_approx,
                          pdb_boundary_exact, s_approx, s_exact,
                          snb_boundary_approx, snb_boundary_exact, sweep)
from .errors import (ConfigError, CotstabError, DimensionError, DomainError,
                     InfiniteLoopGainError, UsageError)
from .models import BuckParams, ConverterModel, RampSpec, Scheme, build_model
from .sampled import (SteadyState, consistent_steady_state, linearize,
                      steady_state_at)
from .tables import Table, write_table

__all__ = ["main", "load_config"]

LOG = logging.getLogger("cotstab")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_REGRESSION = 4

# Errors caused by what the user asked for, not by the numerics failing.
_USER_ERRORS = (ConfigError, UsageError, DomainError, DimensionError,
                InfiniteLoopGainError)

# every config key and its kind, in the order the help lists them
_KEYS = {"scheme": "scheme",
         **dict.fromkeys(("vs", "vc", "R", "L", "C", "Rc", "Ri", "d", "T", "D",
                          "ma", "vo", "iL0", "vC0"), "float"),
         **dict.fromkeys(("Nh", "ncycles", "settle"), "int"),
         **dict.fromkeys(("D_range", "lambda_range", "fs_range"), "range")}


# ---------------------------------------------------------------------------
# configuration


def _parse_range(text: str, what: str) -> tuple[float, float, int]:
    try:
        lo, hi, n = str(text).split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError:
        raise ConfigError(f"{what} must look like lo:hi:n, got {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"{what} bounds must be finite, got {text!r}")
    if n < 2:
        raise ConfigError(f"{what} needs at least 2 points, got {n}")
    return lo, hi, n


def _convert(key: str, text: str):
    kind = _KEYS[key]
    if kind == "scheme":
        try:
            return Scheme.parse(text)
        except UsageError as exc:
            raise ConfigError(str(exc)) from None
    if kind == "range":
        return _parse_range(text, key)
    if kind == "int":
        try:
            value = int(text)
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {text!r}") from None
        if value < 1:
            raise ConfigError(f"{key} must be positive, got {value}")
        return value
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {text!r}")
    if key == "D" and not 0.0 < value <= 1.0:
        raise ConfigError(f"D must lie in (0, 1], got {text!r}")
    return value


def load_config(path: str | None, sets=()) -> dict:
    """Read a flat key=value config file and apply ``--set`` overrides.

    Lines are ``key = value`` with ``#`` comments; values use SI units.
    Unknown keys are rejected so typos fail loudly.  Returns a dict of
    typed values (``scheme`` is a :class:`Scheme`, ranges are tuples).
    """
    raw: dict[str, str] = {}
    if path is not None:
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from None
        for lineno, line in enumerate(lines, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(
                    f"{path}:{lineno}: expected key = value, got {stripped!r}")
            key, _, value = stripped.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            raw[key] = value
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ConfigError(f"--set: unknown config key {key!r}")
        raw[key] = value
    cfg = {key: _convert(key, value) for key, value in raw.items()}
    if "T" in cfg and "D" in cfg:
        raise ConfigError("give exactly one of T or D, not both")
    return cfg


def _need(cfg: dict, keys, what: str) -> list:
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise ConfigError(f"{what} needs config key(s): {', '.join(missing)}")
    return [cfg[k] for k in keys]


def _params(cfg: dict, what: str) -> BuckParams:
    _need(cfg, ("R", "L", "C", "vs"), what)
    return BuckParams(R=cfg["R"], L=cfg["L"], C=cfg["C"],
                      Rc=cfg.get("Rc", 0.0), Ri=cfg.get("Ri", 0.0),
                      vs=cfg["vs"])


def _plant(cfg: dict, what: str) -> tuple[BuckParams, Scheme]:
    return _params(cfg, what), _need(cfg, ("scheme",), what)[0]


def _timing(cfg: dict, what: str, off_stage: bool = False) -> tuple[float, float]:
    """On-time and period; ``off_stage`` also rejects d = T.

    The boundary formulas stay defined at d = T (no off time), while a
    periodic orbit, and so every operating-point command, needs d < T.
    """
    [d] = _need(cfg, ("d",), what)
    if "T" in cfg:
        T = cfg["T"]
    elif "D" in cfg:
        T = d / cfg["D"]
    else:
        raise ConfigError(f"{what} needs one of T or D")
    if not 0.0 < d <= T or (off_stage and d == T):
        relation = "<" if off_stage else "<="
        raise ConfigError(f"need 0 < d {relation} T, got d={d!r}, T={T!r}")
    return d, T


@dataclass(frozen=True)
class _Op:
    """One fully resolved operating point; ``ss`` carries d, T and u."""

    p: BuckParams
    scheme: Scheme
    m: ConverterModel
    ramp: RampSpec
    ss: SteadyState
    vc_derived: bool


def _operating(cfg: dict, what: str) -> _Op:
    """The configured cycle, at the given vc or else the consistent one."""
    p, scheme = _plant(cfg, what)
    m = build_model(p, scheme)
    d, T = _timing(cfg, what, off_stage=True)
    ramp = RampSpec(ma=cfg.get("ma", 0.0), d=d)
    if "vc" in cfg:
        ss = steady_state_at(m, d, T, np.array([p.vs, cfg["vc"]]))
    else:
        ss = consistent_steady_state(m, ramp, T, p.vs)
    return _Op(p, scheme, m, ramp, ss, "vc" not in cfg)


def _op_metadata(op: _Op) -> dict:
    return {
        "scheme": op.scheme.name,
        "d_seconds": op.ss.d,
        "T_seconds": op.ss.T,
        "duty": op.ss.D,
        "ma_volts_per_second": op.ramp.ma,
        "vs_volts": op.p.vs,
        "vc_volts": op.ss.u[1],
        "vc_derived": op.vc_derived,
    }


def _parse_sweep(text: str, allowed) -> tuple[str, float, float, int]:
    key, sep, rng = text.partition("=")
    key = key.strip()
    if not sep:
        raise ConfigError(f"--sweep expects KEY=lo:hi:n, got {text!r}")
    if key not in allowed:
        raise ConfigError(
            f"--sweep key must be one of {', '.join(allowed)}, got {key!r}")
    lo, hi, n = _parse_range(rng.strip(), "--sweep range")
    return key, lo, hi, n


def _grid(args, cfg: dict, key: str, range_key: str, default):
    """Sweep grid (lo, hi, n) from --sweep, else the config, else the default."""
    if args.sweep:
        return _parse_sweep(args.sweep, (key,))[1:]
    return cfg.get(range_key, default)


def _count(args, flag: str, cfg: dict, key: str, default: int) -> int:
    """Positive count from ``--flag``, else config ``key``, else the default."""
    value = getattr(args, flag)
    if value is None:
        return cfg.get(key, default)
    if value < 1:
        raise ConfigError(f"--{flag} must be positive, got {value}")
    return value


def _sweep_rows(table: Table, grid, *funcs) -> Table:
    """One row per grid point: the point, then each function's value(s).

    A function that fails at a point reads NaN in its columns there; one
    that fails everywhere gives a single NaN column, widened to the table.
    """
    columns = []
    for func in funcs:
        xs, ys, notes = sweep(func, *grid)
        for note in notes:
            LOG.debug("sweep point failed: %s", note)
        columns.append(ys)
    values = np.broadcast_to(np.column_stack(columns),
                             (len(xs), len(table.columns) - 1))
    for x, row in zip(xs, values):
        table.add(float(x), *row)
    return table


_FORMULA_COLUMNS = ["formula_id", "route", "value", "unit"]


def _catalog_rows(kind: str, scheme, route: str, unit: str, value) -> list:
    """A row per ``kind`` form for ``scheme``, valued by ``value(id)``; a
    form that fails at the point (Eq41 without a period, say) is left out."""
    rows = []
    for formula in applicable_formulas(kind, scheme):
        try:
            rows.append((formula, route, value(formula), unit))
        except CotstabError as exc:
            LOG.debug("%s failed: %s", formula, exc)
    return rows


# ---------------------------------------------------------------------------
# subcommands: each body takes the parsed arguments and the config and
# returns the table to emit


def _steady_state(args, cfg: dict) -> Table:
    op = _operating(cfg, args.command)
    ss = op.ss
    table = Table(["quantity", "value", "unit"], metadata=_op_metadata(op))
    table.add("iL_cycle_start", float(ss.x0_0[0]), "A")
    table.add("vC_cycle_start", float(ss.x0_0[1]), "V")
    table.add("iL_switch_off", float(ss.x0_d[0]), "A")
    table.add("vC_switch_off", float(ss.x0_d[1]), "V")
    table.add("feedback_cycle_end", float(ss.y_end), "V")
    table.add("ramp_cycle_end", op.ramp.ma * ss.T, "V")
    table.add("duty", ss.D, "dimensionless")
    return table


def _poles(args, cfg: dict) -> Table:
    op = _operating(cfg, args.command)
    d, T = op.ss.d, op.ss.T
    lin = linearize(op.m, op.ss, op.ramp.ma)
    meta = _op_metadata(op)
    meta["ct_equivalent"] = "(1 - pole) / T, real poles only"
    table = Table(["formula_id", "route", "real", "imag", "magnitude",
                   "ct_equivalent_per_second"], metadata=meta)
    for z in lin.poles():
        real_pole = abs(z.imag) <= 1e-12 * (1.0 + abs(z.real))
        ct = equivalent_ct_pole(z.real, T) if real_pole else math.nan
        table.add("Eq15", "cycle_map", z.real, z.imag, abs(z), ct)
    # Closed forms model the no-ramp pole; with a ramp they describe a
    # different operating point, so they are only reported when ma = 0.
    if op.ramp.ma == 0.0:
        for formula in applicable_formulas("pole", op.scheme):
            value = closed_form_pole(op.p, op.scheme, d, T, formula)
            table.add(formula, "closed_form", value, 0.0, abs(value),
                      equivalent_ct_pole(value, T))
        for formula in applicable_formulas("ct_pole", op.scheme):
            value = ct_pole_formula(op.p, op.scheme, d, T, formula)
            table.add(formula, "closed_form_ct", math.nan, math.nan, math.nan,
                      value)
    return table


def _splot_mode(cfg: dict, what: str):
    """Duty-sweep mode, fixed output (vo) or fixed period (T), and metadata."""
    p, scheme = _plant(cfg, what)
    m = build_model(p, scheme)
    [d] = _need(cfg, ("d",), what)
    if "vo" in cfg:
        mode = ("family", cfg["vo"])
        return p, scheme, m, d, mode, {"vo_volts": cfg["vo"], "d_seconds": d}
    if "T" in cfg:
        _, T = _timing(cfg, what)
        return p, scheme, m, d, ("fixed_period", T), {"T_seconds": T}
    raise ConfigError(f"{what} needs vo (fixed-output family) or T "
                      "(fixed period)")


def _splot_point(p, d, mode, D):
    """Source voltage, on-time and period implied by one duty value."""
    kind, value = mode
    if kind == "family":
        pp, T = family_point(p, d, value, D)
        return pp.vs, d, T
    T = value
    return p.vs, D * T, T


def _splot(args, cfg: dict) -> Table:
    p, scheme, m, d, mode, mode_meta = _splot_mode(cfg, args.command)
    grid = _grid(args, cfg, "D", "D_range", (0.05, 0.95, 91))
    meta = {"scheme": scheme.name, "mode": mode[0],
            "column_pdb_exact": "Eq22", "column_pdb_series": "Eq24",
            "column_pdb_series_linear": "Eq26", **mode_meta}
    table = Table(["duty", "pdb_exact_volts_per_second",
                   "pdb_series_volts_per_second",
                   "pdb_series_linear_volts_per_second"], metadata=meta)

    def point(D):
        vs, dd, T = _splot_point(p, d, mode, D)
        return (pdb_boundary_exact(m, vs, dd, T),
                pdb_boundary_approx(m, vs, dd, T, "full"),
                pdb_boundary_approx(m, vs, dd, T, "linear"))

    return _sweep_rows(table, grid, point)


def _pole_locus(args, cfg: dict) -> Table:
    op = _operating(cfg, args.command)
    grid = _grid(args, cfg, "lambda", "lambda_range", (-1.5, 1.5, 121))
    meta = {**_op_metadata(op), "column_ramp_slope_exact": "Eq17",
            "column_ramp_slope_series": "Eq19"}
    table = Table(["lambda", "ramp_slope_exact_volts_per_second",
                   "ramp_slope_series_volts_per_second"], metadata=meta)
    return _sweep_rows(table, grid, lambda lam: s_exact(op.m, op.ss, lam),
                       lambda lam: s_approx(op.m, op.ss, lam))


def _pdb_boundary(args, cfg: dict) -> Table:
    from .harmonic import hb_pdb_splot
    op = _operating(cfg, args.command)
    nh = _count(args, "nh", cfg, "Nh", 2000)
    p, scheme, m, ss = op.p, op.scheme, op.m, op.ss
    d, T = ss.d, ss.T
    rows = [
        ("Eq22", "stage_transition", pdb_boundary_exact(m, p.vs, d, T), "V/s"),
        ("Eq17", "pole_placement", s_exact(m, ss, -1.0), "V/s"),
        ("Eq19", "pole_placement_series", s_approx(m, ss, -1.0), "V/s"),
        ("Eq24", "series", pdb_boundary_approx(m, p.vs, d, T, "full"), "V/s"),
        ("Eq26", "series_linear", pdb_boundary_approx(
            m, p.vs, d, T, "linear"), "V/s"),
    ]
    rows += _catalog_rows("min_ramp", scheme, "closed_form", "V/s",
                          lambda f: min_ramp_formula(p, scheme, d, T, f))
    rows += _catalog_rows("min_ramp_normalized", scheme,
                          "closed_form_normalized", "ratio_to_ripple_slope",
                          lambda f: min_ramp_normalized(p, d, T, f))
    rows.append(("-", "harmonic_balance", hb_pdb_splot(p, scheme, d, T, nh),
                 "V/s"))
    return Table(_FORMULA_COLUMNS, rows, {**_op_metadata(op), "kind": "PDB",
                                          "nh": nh})


def _snb_boundary(args, cfg: dict) -> Table:
    from .harmonic import hb_snb_condition
    op = _operating(cfg, args.command)
    nh = _count(args, "nh", cfg, "Nh", 2000)
    p, m, ss = op.p, op.m, op.ss
    rows = [
        ("Eq53", "stage_transition", snb_boundary_exact(
            m, p.vs, ss.d, ss.T), "V/s"),
        ("Eq17", "pole_placement", s_exact(m, ss, 1.0), "V/s"),
    ]
    rows += _catalog_rows("snb", op.scheme, "series", "V/s",
                          lambda f: snb_boundary_approx(m, p, ss.d, ss.T, f))
    rows.append(("-", "harmonic_balance", hb_snb_condition(
        p, op.scheme, ss.d, ss.T, nh), "V/s"))
    return Table(_FORMULA_COLUMNS, rows, {**_op_metadata(op), "kind": "SNB",
                                          "nh": nh})


def _max_on_time(args, cfg: dict) -> Table:
    p, scheme = _plant(cfg, args.command)
    [D] = _need(cfg, ("D",), args.command)
    ma = cfg.get("ma", 0.0)
    if args.sweep:
        _, d_lo, d_hi, _ = _parse_sweep(args.sweep, ("d",))
        if not d_lo < d_hi:
            raise ConfigError(f"--sweep d= needs lo < hi, got {args.sweep!r}")
    elif "d" in cfg:
        d_lo, d_hi = cfg["d"] / 5.0, cfg["d"] * 5.0
    else:
        raise ConfigError(f"{args.command} needs d as a bracket scale "
                          "or --sweep d=lo:hi:n")
    meta = {"scheme": scheme.name, "duty": D, "ma_volts_per_second": ma,
            "bracket_lo_seconds": d_lo, "bracket_hi_seconds": d_hi,
            "kind": "PDB"}
    # Eq41 needs the period; D is given, so T never is: the search supplies it.
    try:
        exact = exact_max_on_time(p, scheme, ma, D, d_lo, d_hi)
        T41 = exact / D
        meta["Eq41_period_seconds"] = T41
    except CotstabError as exc:
        exact, T41 = math.nan, None
        meta["search_note"] = str(exc)
    rows = [("-", "search", exact, "s")]
    rows += _catalog_rows("on_time", scheme, "closed_form", "s",
                          lambda f: max_on_time(p, scheme, ma, D, f, T=T41))
    return Table(_FORMULA_COLUMNS, rows, meta)


def _min_ri(args, cfg: dict) -> Table:
    p = _params(cfg, args.command)
    if "scheme" in cfg and cfg["scheme"] is not Scheme.V_COTC_CURRENT_RAMP:
        raise ConfigError("min-ri applies to the added current ramp scheme "
                          f"V_COTC_CURRENT_RAMP, config says {cfg['scheme'].name}")
    d, T = _timing(cfg, args.command)
    rows = [("-", "search", exact_min_ri(p, d, T), "ohm")]
    rows += _catalog_rows("min_ri", Scheme.V_COTC_CURRENT_RAMP, "closed_form",
                          "ohm", lambda f: min_sense_resistance(p, d, T, f))
    meta = {"scheme": Scheme.V_COTC_CURRENT_RAMP.name, "d_seconds": d,
            "T_seconds": T, "duty": d / T, "kind": "PDB"}
    return Table(_FORMULA_COLUMNS, rows, meta)


def _hb_splot(args, cfg: dict) -> Table:
    from .harmonic import convergence_points, hb_pdb_splot
    p, scheme, m, d, mode, mode_meta = _splot_mode(cfg, args.command)
    nh = _count(args, "nh", cfg, "Nh", 2000)
    depths = convergence_points(nh)
    grid = _grid(args, cfg, "D", "D_range", (0.05, 0.95, 91))
    columns = ["duty"]
    columns += [f"pdb_hb_n{depth}_volts_per_second" for depth in depths]
    columns.append("pdb_exact_volts_per_second")
    meta = {"scheme": scheme.name, "mode": mode[0], "nh": nh,
            "column_pdb_exact": "Eq22", **mode_meta}

    def point(D):
        vs, dd, T = _splot_point(p, d, mode, D)
        pp = p.with_(vs=vs)
        hb = [hb_pdb_splot(pp, scheme, dd, T, depth) for depth in depths]
        return (*hb, pdb_boundary_exact(m, vs, dd, T))

    return _sweep_rows(Table(columns, metadata=meta), grid, point)


def _freq_sweep(args, cfg: dict, prefix: str, boundary_text: str, series,
                boundary, needs_ramp: bool = False) -> Table:
    """A subharmonic sum against switching frequency.

    ``series(omega_s, p, scheme, d, nh)`` is the sum, ``boundary(T, ma,
    vs)`` the value its real part crosses at the stability boundary, and
    ``needs_ramp`` marks a sum normalized by the ramp amplitude.
    """
    p, scheme = _plant(cfg, args.command)
    [d] = _need(cfg, ("d",), args.command)
    ma = cfg.get("ma", 0.0)
    nh = _count(args, "nh", cfg, "Nh", 2000)
    if args.sweep or "fs_range" in cfg:
        grid = _grid(args, cfg, "fs", "fs_range", None)
    else:
        # Default window around the design point, kept below the 1/d ceiling.
        _, T0 = _timing(cfg, "the default frequency sweep")
        grid = (0.25 / T0, min(2.5 / T0, 0.98 / d), 121)
    if needs_ramp and ma == 0.0:
        raise ConfigError(f"{args.command} needs a nonzero ma (the sum is "
                          "normalized by the ramp amplitude)")
    if not d > 0.0:  # or every point would fail, and read NaN
        raise ConfigError(f"{args.command} needs d > 0, got d={d!r}")
    bad = [fs for fs in grid[:2] if not fs > 0.0]   # the grid's ends
    if bad:
        raise ConfigError(f"{args.command} needs switching frequencies "
                          f"fs > 0, got fs={bad[0]!r}")
    meta = {"scheme": scheme.name, "d_seconds": d, "nh": nh,
            "ma_volts_per_second": ma, "boundary": boundary_text}
    table = Table(["fs_hertz", f"{prefix}_real", f"{prefix}_imag", "boundary"],
                  metadata=meta)

    def point(fs):
        T = 1.0 / fs
        if T <= d:
            return math.nan, math.nan, math.nan
        val = series(2.0 * math.pi * fs, p, scheme, d, nh)
        return val.real, val.imag, boundary(T, ma, p.vs)

    return _sweep_rows(table, grid, point)


def _l1(args, cfg: dict) -> Table:
    from .harmonic import l1_plot
    ma = cfg.get("ma", 0.0)
    return _freq_sweep(args, cfg, "L1", "real part = 2",
                       lambda w, p, s, d, nh: l1_plot(w, p, s, ma, d, nh),
                       lambda T, ma, vs: 2.0, needs_ramp=True)


def _l2(args, cfg: dict) -> Table:
    from .harmonic import l2_plot
    return _freq_sweep(args, cfg, "L2", "real part = 2*T*ma/vs", l2_plot,
                       lambda T, ma, vs: 2.0 * T * ma / vs)


def _hplot(args, cfg: dict) -> Table:
    from .harmonic import h_plot
    return _freq_sweep(args, cfg, "H", "real part = T*ma/vs", h_plot,
                       lambda T, ma, vs: T * ma / vs)


def _simulate(args, cfg: dict) -> Table:
    from .simulate import classify_orbit, nominal_probe_state, simulate
    op = _operating(cfg, args.command)
    ncycles = _count(args, "cycles", cfg, "ncycles", 2000)
    settle = cfg.get("settle", 500)
    have = [k for k in ("iL0", "vC0") if k in cfg]
    if len(have) == 1:
        raise ConfigError("give both iL0 and vC0, or neither")
    if have:
        x0 = np.array([cfg["iL0"], cfg["vC0"]])
    else:
        x0 = nominal_probe_state(op.p, op.ss.D, op.ss.d)
    trace = simulate(op.m, op.ramp, x0, op.ss.u, ncycles, T_guess=op.ss.T)
    meta = {**_op_metadata(op), "ncycles": ncycles, "settle": settle,
            "iL0_amps": float(x0[0]), "vC0_volts": float(x0[1]),
            "saturated_cycles": int(trace.saturated.sum()),
            "classification": (classify_orbit(trace, settle)
                               if ncycles > settle + 32 else "UNCLASSIFIED")}
    table = Table(["cycle", "Tn_seconds", "iL_amps", "vC_volts",
                   "y_switch_volts", "saturated"], metadata=meta)
    for k in range(trace.ncycles):
        table.add(k, float(trace.Tn[k]), float(trace.x_end[k, 0]),
                  float(trace.x_end[k, 1]), float(trace.y_switch[k]),
                  int(trace.saturated[k]))
    return table


def _onset(args, cfg: dict) -> Table:
    from .simulate import make_duty_family, make_ramp_family, onset_search
    if not args.sweep:
        raise ConfigError("onset needs --sweep ma=lo:hi:n or --sweep D=lo:hi:n "
                          "(n is ignored; the bracket is bisected)")
    key, lo, hi, _ = _parse_sweep(args.sweep, ("ma", "D"))
    p, scheme = _plant(cfg, args.command)
    [d] = _need(cfg, ("d",), args.command)
    cycles = _count(args, "cycles", cfg, "ncycles", 3000)
    settle = cfg.get("settle", 500)
    if key == "ma":
        _, T = _timing(cfg, args.command, off_stage=True)
        family = make_ramp_family(p, scheme, d, T)
        unit = "V/s"
    else:
        _need(cfg, ("vo",), "onset over duty")
        family = make_duty_family(p, scheme, d, cfg["vo"], cfg.get("ma", 0.0))
        unit = "dimensionless"
    LOG.info("bisecting %s in [%g, %g], %d cycles per probe", key, lo, hi, cycles)
    value = onset_search(family, lo, hi, cycles=cycles, settle=settle)
    meta = {"scheme": scheme.name, "parameter": key, "bracket_lo": lo,
            "bracket_hi": hi, "cycles": cycles, "settle": settle,
            "d_seconds": d}
    table = Table(["parameter", "onset", "unit"], metadata=meta)
    table.add(key, value, unit)
    return table


def _examples(args, cfg: dict) -> tuple[Table, int]:
    from .cases import run_cases
    results = run_cases()
    table = Table(["case", "check", "value", "expected", "tolerance", "status"],
                  metadata={})
    for result in results:
        for check in result.checks:
            table.add(result.name, check.label, check.got, check.expected,
                      check.atol, "PASS" if check.passed else "FAIL")
    npass = sum(1 for r in results if r.passed)
    table.metadata.update(cases_total=len(results), cases_passed=npass)
    return table, EXIT_OK if npass == len(results) else EXIT_REGRESSION


# ---------------------------------------------------------------------------
# declaration, parser and runner

# name -> (help, optional flags, body).  A body returns its table, or the
# table and an exit code.
_COMMANDS = {
    "steady-state": ("periodic orbit at the operating point",
                     (), _steady_state),
    "poles": ("cycle-map poles, exact and closed-form",
              ("formula",), _poles),
    "splot": ("period-doubling threshold against duty, three routes",
              ("sweep",), _splot),
    "pole-locus": ("ramp slope that places a pole at each real lambda",
                   ("sweep",), _pole_locus),
    "pdb-boundary": ("period-doubling threshold at one point, every route",
                     ("nh", "formula"), _pdb_boundary),
    "snb-boundary": ("saddle-node threshold at one point, every route",
                     ("nh", "formula"), _snb_boundary),
    "max-on-time": ("largest stable on-time at fixed duty",
                    ("sweep", "formula"), _max_on_time),
    "min-ri": ("smallest stabilizing current-sense resistance",
               ("formula",), _min_ri),
    "hb-splot": ("period-doubling threshold from the harmonic series",
                 ("sweep", "nh"), _hb_splot),
    "l1": ("normalized subharmonic sum against switching frequency",
           ("sweep", "nh"), _l1),
    "l2": ("two-sided subharmonic sum against switching frequency",
           ("sweep", "nh"), _l2),
    "hplot": ("one-sided subharmonic sum against switching frequency",
              ("sweep", "nh"), _hplot),
    "simulate": ("cycle-by-cycle time-domain trace",
                 ("cycles",), _simulate),
    "onset": ("simulated instability onset by bisection",
              ("sweep", "cycles"), _onset),
    "examples": ("re-run the built-in worked cases (exit 4 on regression)",
                 (), _examples),
}

# optional flags, in the order they are added to every subcommand
_FLAGS = {
    "sweep": dict(metavar="KEY=lo:hi:n",
                  help="sweep grid (onset: bisection bracket)"),
    "nh": dict(type=int, metavar="N",
               help="harmonic truncation depth (default 2000)"),
    "formula": dict(metavar="ID", help="keep only this catalog formula's row"),
    "cycles": dict(type=int, metavar="N", help="simulated switching cycles"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cotstab",
        description="Stability boundaries of constant on-time buck converters.",
        epilog="Config files are flat key=value lines with # comments; "
               f"values in SI units. Keys: {' '.join(_KEYS)} (ranges as "
               "lo:hi:n). Give exactly one of T or D.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True
    for name, (help_text, flags, _) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", metavar="PATH",
                         help="key=value config file")
        cmd.add_argument("--set", action="append", default=[],
                         metavar="KEY=VALUE", help="override one config key")
        cmd.add_argument("--out", metavar="PATH",
                         help="write the table here instead of stdout")
        cmd.add_argument("--format", choices=("csv", "json"), default="csv")
        for flag, options in _FLAGS.items():
            if flag in flags:
                cmd.add_argument(f"--{flag}", **options)
    return parser


def _run(args) -> int:
    """Load the config, run the body, keep the --formula row, emit."""
    _, flags, body = _COMMANDS[args.command]
    cfg = load_config(args.config, args.set)
    result = body(args, cfg)
    table, code = result if isinstance(result, tuple) else (result, EXIT_OK)
    if "formula" in flags and args.formula is not None:
        if args.formula not in FORMULA_IDS:
            raise UsageError(f"unknown formula id {args.formula!r}")
        table.rows = [row for row in table.rows if row[0] == args.formula]
        if not table.rows:
            raise UsageError(f"formula {args.formula} does not apply to this "
                             "command or scheme")
    text = write_table(table, args.format, args.out)
    if args.out is None:
        sys.stdout.write(text)
    else:
        LOG.info("wrote %s", args.out)
    return code


def _setup_logging():
    levels = {"error": logging.ERROR, "info": logging.INFO,
              "debug": logging.DEBUG}
    level = levels.get(os.environ.get("COTC_LOG", "error").strip().lower(),
                       logging.ERROR)
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(levelname)s %(name)s: %(message)s")


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run(args)
    except _USER_ERRORS as exc:
        print(f"cotstab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CotstabError as exc:
        print(f"cotstab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

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
from .bifurcation import (FORMULA_IDS, closed_form_pole, ct_pole_formula,
                          equivalent_ct_pole, exact_max_on_time, exact_min_ri,
                          family_point, max_on_time, min_ramp_formula,
                          min_ramp_normalized, min_sense_resistance,
                          pdb_boundary_approx, pdb_boundary_exact, s_approx,
                          s_exact, snb_boundary_approx, snb_boundary_exact)
from .cases import run_cases
from .errors import (ConfigError, CotstabError, DimensionError, DomainError,
                     InfiniteLoopGainError, UsageError)
from .harmonic import (convergence_points, h_plot, hb_pdb_splot, hb_snb_condition,
                       l1_plot, l2_plot)
from .models import BuckParams, RampSpec, Scheme, build_model
from .sampled import consistent_vc, linearize, steady_state_at
from .simulate import (classify_orbit, make_duty_family, make_ramp_family,
                       nominal_probe_state, onset_search, simulate)
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

_FLOAT_KEYS = frozenset({"vs", "vc", "R", "L", "C", "Rc", "Ri", "d", "T", "D",
                         "ma", "vo", "iL0", "vC0"})
_INT_KEYS = frozenset({"Nh", "ncycles", "settle"})
_RANGE_KEYS = frozenset({"D_range", "lambda_range", "ma_range", "fs_range"})
_ALL_KEYS = frozenset({"scheme"}) | _FLOAT_KEYS | _INT_KEYS | _RANGE_KEYS


# ---------------------------------------------------------------------------
# configuration


def _parse_range(text: str, what: str) -> tuple[float, float, int]:
    parts = str(text).split(":")
    if len(parts) != 3:
        raise ConfigError(f"{what} must look like lo:hi:n, got {text!r}")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(f"{what} must look like lo:hi:n, got {text!r}") from None
    if n < 2:
        raise ConfigError(f"{what} needs at least 2 points, got {n}")
    return lo, hi, n


def _convert(key: str, text: str):
    if key == "scheme":
        try:
            return Scheme.parse(text)
        except UsageError as exc:
            raise ConfigError(str(exc)) from None
    if key in _RANGE_KEYS:
        return _parse_range(text, key)
    if key in _INT_KEYS:
        try:
            value = int(text)
        except ValueError:
            raise ConfigError(f"{key} must be an integer, got {text!r}") from None
        if value < 1:
            raise ConfigError(f"{key} must be positive, got {value}")
        return value
    try:
        return float(text)
    except ValueError:
        raise ConfigError(f"{key} must be a number, got {text!r}") from None


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
            if key not in _ALL_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            raw[key] = value
    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _ALL_KEYS:
            raise ConfigError(f"--set: unknown config key {key!r}")
        raw[key] = value
    cfg = {key: _convert(key, value) for key, value in raw.items()}
    if "T" in cfg and "D" in cfg:
        raise ConfigError("give exactly one of T or D, not both")
    return cfg


def _need(cfg: dict, keys, what: str):
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise ConfigError(f"{what} needs config key(s): {', '.join(missing)}")


def _params(cfg: dict, what: str) -> BuckParams:
    _need(cfg, ("R", "L", "C", "vs"), what)
    return BuckParams(R=cfg["R"], L=cfg["L"], C=cfg["C"],
                      Rc=cfg.get("Rc", 0.0), Ri=cfg.get("Ri", 0.0),
                      vs=cfg["vs"], vc=cfg.get("vc", 0.0))


def _scheme(cfg: dict, what: str) -> Scheme:
    _need(cfg, ("scheme",), what)
    return cfg["scheme"]


def _timing(cfg: dict, what: str) -> tuple[float, float]:
    _need(cfg, ("d",), what)
    d = cfg["d"]
    if "T" in cfg:
        T = cfg["T"]
    elif "D" in cfg:
        T = d / cfg["D"]
    else:
        raise ConfigError(f"{what} needs one of T or D")
    if not 0.0 < d <= T:
        raise ConfigError(f"need 0 < d <= T, got d={d!r}, T={T!r}")
    return d, T


@dataclass(frozen=True)
class _Op:
    """One fully resolved operating point."""

    p: BuckParams
    scheme: Scheme
    m: object
    d: float
    T: float
    ramp: RampSpec
    vc: float
    vc_derived: bool
    u: np.ndarray


def _operating(cfg: dict, what: str) -> _Op:
    p = _params(cfg, what)
    scheme = _scheme(cfg, what)
    m = build_model(p, scheme)
    d, T = _timing(cfg, what)
    ramp = RampSpec(ma=cfg.get("ma", 0.0), d=d)
    if "vc" in cfg:
        vc, derived = cfg["vc"], False
    else:
        vc, derived = consistent_vc(m, ramp, T, p.vs), True
    u = np.array([p.vs, vc])
    return _Op(p, scheme, m, d, T, ramp, vc, derived, u)


def _op_metadata(op: _Op) -> dict:
    return {
        "scheme": op.scheme.name,
        "d_seconds": op.d,
        "T_seconds": op.T,
        "duty": op.d / op.T,
        "ma_volts_per_second": op.ramp.ma,
        "vs_volts": op.p.vs,
        "vc_volts": op.vc,
        "vc_derived": op.vc_derived,
    }


def _grid(args, cfg: dict, key: str, range_key: str, default):
    """Sweep grid from --sweep, else the config, else the default."""
    if getattr(args, "sweep", None):
        skey, lo, hi, n = _parse_sweep(args.sweep, (key,))
        return np.linspace(lo, hi, n)
    if range_key in cfg:
        lo, hi, n = cfg[range_key]
        return np.linspace(lo, hi, n)
    if default is None:
        raise ConfigError(f"give --sweep {key}=lo:hi:n or config {range_key}")
    lo, hi, n = default
    return np.linspace(lo, hi, n)


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


def _emit(args, table: Table, code: int = EXIT_OK) -> int:
    text = write_table(table, args.format, args.out)
    if args.out is None:
        sys.stdout.write(text)
    else:
        LOG.info("wrote %s", args.out)
    return code


def _nh(args, cfg: dict) -> int:
    if getattr(args, "nh", None) is not None:
        if args.nh < 1:
            raise ConfigError(f"--nh must be positive, got {args.nh}")
        return args.nh
    return cfg.get("Nh", 2000)


def _formula_filter(args, rows):
    wanted = getattr(args, "formula", None)
    if wanted is None:
        return rows
    if wanted not in FORMULA_IDS:
        raise UsageError(f"unknown formula id {wanted!r}")
    kept = [row for row in rows if row[0] == wanted]
    if not kept:
        raise UsageError(f"formula {wanted} does not apply to this command "
                         "or scheme")
    return kept


# ---------------------------------------------------------------------------
# subcommands


def cmd_steady_state(args) -> int:
    cfg = load_config(args.config, args.set)
    op = _operating(cfg, "steady-state")
    ss = steady_state_at(op.m, op.d, op.T, op.u)
    table = Table(["quantity", "value", "unit"], metadata=_op_metadata(op))
    table.add("iL_cycle_start", float(ss.x0_0[0]), "A")
    table.add("vC_cycle_start", float(ss.x0_0[1]), "V")
    table.add("iL_switch_off", float(ss.x0_d[0]), "A")
    table.add("vC_switch_off", float(ss.x0_d[1]), "V")
    table.add("feedback_cycle_end", float(ss.y_end), "V")
    table.add("ramp_cycle_end", op.ramp.ma * op.T, "V")
    table.add("duty", ss.D, "dimensionless")
    return _emit(args, table)


_POLE_FORMS = {
    Scheme.V_COTC: ("Eq40", "Eq42"),
    Scheme.V_COTC_CURRENT_RAMP: ("Eq46",),
    Scheme.C_COTC: ("Eq50",),
}
_CT_FORMS = {Scheme.V_COTC: "Eq43", Scheme.C_COTC: "Eq51"}


def cmd_poles(args) -> int:
    cfg = load_config(args.config, args.set)
    op = _operating(cfg, "poles")
    ss = steady_state_at(op.m, op.d, op.T, op.u)
    lin = linearize(op.m, ss, op.ramp.ma)
    rows = []
    for z in lin.poles():
        real_pole = abs(z.imag) <= 1e-12 * (1.0 + abs(z.real))
        ct = equivalent_ct_pole(z.real, op.T) if real_pole else math.nan
        rows.append(("Eq15", "cycle_map", z.real, z.imag, abs(z), ct))
    # Closed forms model the no-ramp pole; with a ramp they describe a
    # different operating point, so they are only reported when ma = 0.
    if op.ramp.ma == 0.0:
        forms = ("Eq20", "Eq21") + _POLE_FORMS[op.scheme]
        for formula in forms:
            value = closed_form_pole(op.p, op.scheme, op.d, op.T, formula)
            rows.append((formula, "closed_form", value, 0.0, abs(value),
                         equivalent_ct_pole(value, op.T)))
        ct_id = _CT_FORMS.get(op.scheme)
        if ct_id is not None:
            value = ct_pole_formula(op.p, op.scheme, op.d, op.T, ct_id)
            rows.append((ct_id, "closed_form_ct", math.nan, math.nan,
                         math.nan, value))
    rows = _formula_filter(args, rows)
    meta = _op_metadata(op)
    meta["ct_equivalent"] = "(1 - pole) / T, real poles only"
    table = Table(["formula_id", "route", "real", "imag", "magnitude",
                   "ct_equivalent_per_second"], metadata=meta)
    for row in rows:
        table.add(*row)
    return _emit(args, table)


def _splot_mode(cfg: dict, what: str):
    """Duty-sweep mode: fixed output (vo) or fixed period (T)."""
    p = _params(cfg, what)
    scheme = _scheme(cfg, what)
    m = build_model(p, scheme)
    _need(cfg, ("d",), what)
    d = cfg["d"]
    if "vo" in cfg:
        return p, scheme, m, d, ("family", cfg["vo"])
    if "T" in cfg:
        if not 0.0 < d <= cfg["T"]:
            raise ConfigError(f"need 0 < d <= T, got d={d!r}, T={cfg['T']!r}")
        return p, scheme, m, d, ("fixed_period", cfg["T"])
    raise ConfigError(f"{what} needs vo (fixed-output family) or T "
                      "(fixed period)")


def _splot_point(p, m, d, mode, D):
    """Source voltage, on-time and period implied by one duty value."""
    kind, value = mode
    if kind == "family":
        pp, T = family_point(p, d, value, D)
        return pp.vs, d, T
    T = value
    return p.vs, D * T, T


def cmd_splot(args) -> int:
    cfg = load_config(args.config, args.set)
    p, scheme, m, d, mode = _splot_mode(cfg, "splot")
    duties = _grid(args, cfg, "D", "D_range", (0.05, 0.95, 91))
    meta = {"scheme": scheme.name, "mode": mode[0],
            "column_pdb_exact": "Eq22", "column_pdb_series": "Eq24",
            "column_pdb_series_linear": "Eq26"}
    if mode[0] == "family":
        meta["vo_volts"] = mode[1]
        meta["d_seconds"] = d
    else:
        meta["T_seconds"] = mode[1]
    table = Table(["duty", "pdb_exact_volts_per_second",
                   "pdb_series_volts_per_second",
                   "pdb_series_linear_volts_per_second"], metadata=meta)
    for D in duties:
        try:
            vs, dd, T = _splot_point(p, m, d, mode, float(D))
            exact = pdb_boundary_exact(m, vs, dd, T)
            full = pdb_boundary_approx(m, vs, dd, T, "full")
            lin = pdb_boundary_approx(m, vs, dd, T, "linear")
        except CotstabError as exc:
            LOG.debug("splot point D=%g failed: %s", D, exc)
            exact = full = lin = math.nan
        table.add(float(D), exact, full, lin)
    return _emit(args, table)


def cmd_pole_locus(args) -> int:
    cfg = load_config(args.config, args.set)
    op = _operating(cfg, "pole-locus")
    ss = steady_state_at(op.m, op.d, op.T, op.u)
    lams = _grid(args, cfg, "lambda", "lambda_range", (-1.5, 1.5, 121))
    meta = _op_metadata(op)
    meta["column_ramp_slope_exact"] = "Eq17"
    meta["column_ramp_slope_series"] = "Eq19"
    table = Table(["lambda", "ramp_slope_exact_volts_per_second",
                   "ramp_slope_series_volts_per_second"], metadata=meta)
    for lam in lams:
        try:
            exact = s_exact(op.m, ss, float(lam))
        except CotstabError:
            exact = math.nan
        try:
            approx = s_approx(op.m, ss, float(lam))
        except CotstabError:
            approx = math.nan
        table.add(float(lam), exact, approx)
    return _emit(args, table)


def cmd_pdb_boundary(args) -> int:
    cfg = load_config(args.config, args.set)
    op = _operating(cfg, "pdb-boundary")
    nh = _nh(args, cfg)
    ss = steady_state_at(op.m, op.d, op.T, op.u)
    rows = [
        ("Eq22", "stage_transition", pdb_boundary_exact(
            op.m, op.p.vs, op.d, op.T), "V/s"),
        ("Eq17", "pole_placement", s_exact(op.m, ss, -1.0), "V/s"),
        ("Eq19", "pole_placement_series", s_approx(op.m, ss, -1.0), "V/s"),
        ("Eq24", "series", pdb_boundary_approx(
            op.m, op.p.vs, op.d, op.T, "full"), "V/s"),
        ("Eq26", "series_linear", pdb_boundary_approx(
            op.m, op.p.vs, op.d, op.T, "linear"), "V/s"),
    ]
    if op.scheme is Scheme.V_COTC:
        for formula in ("Eq32", "Eq34"):
            rows.append((formula, "closed_form", min_ramp_formula(
                op.p, op.scheme, op.d, op.T, formula), "V/s"))
        for formula in ("Eq36", "Eq37"):
            rows.append((formula, "closed_form_normalized", min_ramp_normalized(
                op.p, op.d, op.T, formula), "ratio_to_ripple_slope"))
    elif op.scheme is Scheme.C_COTC:
        rows.append(("Eq49", "closed_form", min_ramp_formula(
            op.p, op.scheme, op.d, op.T, "Eq49"), "V/s"))
    rows.append(("-", "harmonic_balance", hb_pdb_splot(
        op.p, op.scheme, op.d, op.T, nh), "V/s"))
    rows = _formula_filter(args, rows)
    meta = _op_metadata(op)
    meta["kind"] = "PDB"
    meta["nh"] = nh
    table = Table(["formula_id", "route", "value", "unit"], metadata=meta)
    for row in rows:
        table.add(*row)
    return _emit(args, table)


_SNB_FORMS = {Scheme.V_COTC: ("Eq54", "Eq55"), Scheme.C_COTC: ("Eq54", "Eq56"),
              Scheme.V_COTC_CURRENT_RAMP: ("Eq54",)}


def cmd_snb_boundary(args) -> int:
    cfg = load_config(args.config, args.set)
    op = _operating(cfg, "snb-boundary")
    nh = _nh(args, cfg)
    ss = steady_state_at(op.m, op.d, op.T, op.u)
    rows = [
        ("Eq53", "stage_transition", snb_boundary_exact(
            op.m, op.p.vs, op.d, op.T), "V/s"),
        ("Eq17", "pole_placement", s_exact(op.m, ss, 1.0), "V/s"),
    ]
    for formula in _SNB_FORMS[op.scheme]:
        rows.append((formula, "series", snb_boundary_approx(
            op.m, op.p, op.d, op.T, formula), "V/s"))
    rows.append(("-", "harmonic_balance", hb_snb_condition(
        op.p, op.scheme, op.d, op.T, nh), "V/s"))
    rows = _formula_filter(args, rows)
    meta = _op_metadata(op)
    meta["kind"] = "SNB"
    meta["nh"] = nh
    table = Table(["formula_id", "route", "value", "unit"], metadata=meta)
    for row in rows:
        table.add(*row)
    return _emit(args, table)


_ON_TIME_FORMS = ("Eq27", "Eq33", "Eq35", "Eq38", "Eq39", "Eq41",
                  "Eq44", "Eq45")


def cmd_max_on_time(args) -> int:
    cfg = load_config(args.config, args.set)
    what = "max-on-time"
    p = _params(cfg, what)
    scheme = _scheme(cfg, what)
    _need(cfg, ("D",), what)
    D = cfg["D"]
    ma = cfg.get("ma", 0.0)
    if getattr(args, "sweep", None):
        _, d_lo, d_hi, _ = _parse_sweep(args.sweep, ("d",))
    elif "d" in cfg:
        d_lo, d_hi = cfg["d"] / 5.0, cfg["d"] * 5.0
    else:
        raise ConfigError(f"{what} needs d as a bracket scale "
                          "or --sweep d=lo:hi:n")
    meta = {"scheme": scheme.name, "duty": D, "ma_volts_per_second": ma,
            "bracket_lo_seconds": d_lo, "bracket_hi_seconds": d_hi,
            "kind": "PDB"}
    rows = []
    try:
        exact = exact_max_on_time(p, scheme, ma, D, d_lo, d_hi)
        rows.append(("-", "search", exact, "s"))
    except CotstabError as exc:
        exact = math.nan
        meta["search_note"] = str(exc)
        rows.append(("-", "search", exact, "s"))
    # Eq41 needs the cycle period: from the config, else from the search.
    T_for_41 = cfg.get("T")
    if T_for_41 is None and math.isfinite(exact):
        T_for_41 = exact / D
        meta["Eq41_period_seconds"] = T_for_41
    for formula in _ON_TIME_FORMS:
        try:
            value = max_on_time(p, scheme, ma, D, formula,
                                T=T_for_41 if formula == "Eq41" else None)
        except UsageError:
            continue
        except CotstabError as exc:
            LOG.debug("%s failed: %s", formula, exc)
            continue
        rows.append((formula, "closed_form", value, "s"))
    rows = _formula_filter(args, rows)
    table = Table(["formula_id", "route", "value", "unit"], metadata=meta)
    for row in rows:
        table.add(*row)
    return _emit(args, table)


def cmd_min_ri(args) -> int:
    cfg = load_config(args.config, args.set)
    what = "min-ri"
    p = _params(cfg, what)
    if "scheme" in cfg and cfg["scheme"] is not Scheme.V_COTC_CURRENT_RAMP:
        raise ConfigError("min-ri applies to the added current ramp scheme "
                          f"V_COTC_CURRENT_RAMP, config says {cfg['scheme'].name}")
    d, T = _timing(cfg, what)
    rows = [("-", "search", exact_min_ri(p, d, T), "ohm")]
    for formula in ("Eq44", "Eq45", "Eq47"):
        rows.append((formula, "closed_form",
                     min_sense_resistance(p, d, T, formula), "ohm"))
    rows = _formula_filter(args, rows)
    meta = {"scheme": Scheme.V_COTC_CURRENT_RAMP.name, "d_seconds": d,
            "T_seconds": T, "duty": d / T, "kind": "PDB"}
    table = Table(["formula_id", "route", "value", "unit"], metadata=meta)
    for row in rows:
        table.add(*row)
    return _emit(args, table)


def cmd_hb_splot(args) -> int:
    cfg = load_config(args.config, args.set)
    p, scheme, m, d, mode = _splot_mode(cfg, "hb-splot")
    nh = _nh(args, cfg)
    depths = convergence_points(nh)
    duties = _grid(args, cfg, "D", "D_range", (0.05, 0.95, 91))
    columns = ["duty"]
    columns += [f"pdb_hb_n{depth}_volts_per_second" for depth in depths]
    columns.append("pdb_exact_volts_per_second")
    meta = {"scheme": scheme.name, "mode": mode[0], "nh": nh,
            "column_pdb_exact": "Eq22"}
    if mode[0] == "family":
        meta["vo_volts"] = mode[1]
        meta["d_seconds"] = d
    else:
        meta["T_seconds"] = mode[1]
    table = Table(columns, metadata=meta)
    for D in duties:
        try:
            vs, dd, T = _splot_point(p, m, d, mode, float(D))
            pp = p.with_(vs=vs)
            hb = [hb_pdb_splot(pp, scheme, dd, T, depth) for depth in depths]
            exact = pdb_boundary_exact(m, vs, dd, T)
        except CotstabError as exc:
            LOG.debug("hb-splot point D=%g failed: %s", D, exc)
            hb = [math.nan] * len(depths)
            exact = math.nan
        table.add(float(D), *hb, exact)
    return _emit(args, table)


def _fs_grid(args, cfg: dict, d: float):
    if getattr(args, "sweep", None) or "fs_range" in cfg:
        return _grid(args, cfg, "fs", "fs_range", None)
    # Default window around the design point, kept below the 1/d ceiling.
    _, T0 = _timing(cfg, "the default frequency sweep")
    hi = min(2.5 / T0, 0.98 / d)
    return np.linspace(0.25 / T0, hi, 121)


def _freq_sweep(args, which: str):
    cfg = load_config(args.config, args.set)
    what = which
    p = _params(cfg, what)
    scheme = _scheme(cfg, what)
    _need(cfg, ("d",), what)
    d = cfg["d"]
    ma = cfg.get("ma", 0.0)
    nh = _nh(args, cfg)
    fss = _fs_grid(args, cfg, d)
    return cfg, p, scheme, d, ma, nh, fss


def cmd_hplot(args) -> int:
    _, p, scheme, d, ma, nh, fss = _freq_sweep(args, "hplot")
    meta = {"scheme": scheme.name, "d_seconds": d, "nh": nh,
            "ma_volts_per_second": ma, "boundary": "real part = T*ma/vs"}
    table = Table(["fs_hertz", "H_real", "H_imag", "boundary"], metadata=meta)
    for fs in fss:
        T = 1.0 / float(fs)
        if T <= d:
            table.add(float(fs), math.nan, math.nan, math.nan)
            continue
        val = h_plot(2.0 * math.pi * float(fs), p, scheme, d, nh)
        table.add(float(fs), val.real, val.imag, T * ma / p.vs)
    return _emit(args, table)


def cmd_l2(args) -> int:
    _, p, scheme, d, ma, nh, fss = _freq_sweep(args, "l2")
    meta = {"scheme": scheme.name, "d_seconds": d, "nh": nh,
            "ma_volts_per_second": ma, "boundary": "real part = 2*T*ma/vs"}
    table = Table(["fs_hertz", "L2_real", "L2_imag", "boundary"], metadata=meta)
    for fs in fss:
        T = 1.0 / float(fs)
        if T <= d:
            table.add(float(fs), math.nan, math.nan, math.nan)
            continue
        val = l2_plot(2.0 * math.pi * float(fs), p, scheme, d, nh)
        table.add(float(fs), val.real, val.imag, 2.0 * T * ma / p.vs)
    return _emit(args, table)


def cmd_l1(args) -> int:
    _, p, scheme, d, ma, nh, fss = _freq_sweep(args, "l1")
    if ma == 0.0:
        raise ConfigError("l1 needs a nonzero ma (the sum is normalized "
                          "by the ramp amplitude)")
    meta = {"scheme": scheme.name, "d_seconds": d, "nh": nh,
            "ma_volts_per_second": ma, "boundary": "real part = 2"}
    table = Table(["fs_hertz", "L1_real", "L1_imag", "boundary"], metadata=meta)
    for fs in fss:
        T = 1.0 / float(fs)
        if T <= d:
            table.add(float(fs), math.nan, math.nan, math.nan)
            continue
        val = l1_plot(2.0 * math.pi * float(fs), p, scheme, ma, d, nh)
        table.add(float(fs), val.real, val.imag, 2.0)
    return _emit(args, table)


def cmd_simulate(args) -> int:
    cfg = load_config(args.config, args.set)
    op = _operating(cfg, "simulate")
    ncycles = args.cycles or cfg.get("ncycles", 2000)
    settle = cfg.get("settle", 500)
    have = [k for k in ("iL0", "vC0") if k in cfg]
    if len(have) == 1:
        raise ConfigError("give both iL0 and vC0, or neither")
    if have:
        x0 = np.array([cfg["iL0"], cfg["vC0"]])
    else:
        x0 = nominal_probe_state(op.p, op.d / op.T, op.d)
    trace = simulate(op.m, op.ramp, x0, op.u, ncycles, T_guess=op.T)
    meta = _op_metadata(op)
    meta["ncycles"] = ncycles
    meta["settle"] = settle
    meta["iL0_amps"] = float(x0[0])
    meta["vC0_volts"] = float(x0[1])
    meta["saturated_cycles"] = int(trace.saturated.sum())
    if ncycles > settle + 32:
        meta["classification"] = classify_orbit(trace, settle)
    else:
        meta["classification"] = "UNCLASSIFIED"
    table = Table(["cycle", "Tn_seconds", "iL_amps", "vC_volts",
                   "y_switch_volts", "saturated"], metadata=meta)
    for k in range(trace.ncycles):
        table.add(k, float(trace.Tn[k]), float(trace.x_end[k, 0]),
                  float(trace.x_end[k, 1]), float(trace.y_switch[k]),
                  int(trace.saturated[k]))
    return _emit(args, table)


def cmd_onset(args) -> int:
    cfg = load_config(args.config, args.set)
    what = "onset"
    if not args.sweep:
        raise ConfigError("onset needs --sweep ma=lo:hi:n or --sweep D=lo:hi:n "
                          "(n is ignored; the bracket is bisected)")
    key, lo, hi, _ = _parse_sweep(args.sweep, ("ma", "D"))
    p = _params(cfg, what)
    scheme = _scheme(cfg, what)
    _need(cfg, ("d",), what)
    d = cfg["d"]
    cycles = args.cycles or cfg.get("ncycles", 3000)
    settle = cfg.get("settle", 500)
    if key == "ma":
        _, T = _timing(cfg, what)
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
    return _emit(args, table)


def cmd_examples(args) -> int:
    results = run_cases()
    table = Table(["case", "check", "value", "expected", "tolerance", "status"],
                  metadata={})
    for result in results:
        for check in result.checks:
            table.add(result.name, check.label, check.got, check.expected,
                      check.atol, "PASS" if check.passed else "FAIL")
    npass = sum(1 for r in results if r.passed)
    table.metadata["cases_total"] = len(results)
    table.metadata["cases_passed"] = npass
    code = EXIT_OK if npass == len(results) else EXIT_REGRESSION
    return _emit(args, table, code)


# ---------------------------------------------------------------------------
# parser and dispatch


_DISPATCH = {
    "steady-state": cmd_steady_state,
    "poles": cmd_poles,
    "splot": cmd_splot,
    "pole-locus": cmd_pole_locus,
    "pdb-boundary": cmd_pdb_boundary,
    "snb-boundary": cmd_snb_boundary,
    "max-on-time": cmd_max_on_time,
    "min-ri": cmd_min_ri,
    "hb-splot": cmd_hb_splot,
    "l1": cmd_l1,
    "l2": cmd_l2,
    "hplot": cmd_hplot,
    "simulate": cmd_simulate,
    "onset": cmd_onset,
    "examples": cmd_examples,
}

_HELP = {
    "steady-state": "periodic orbit at the operating point",
    "poles": "cycle-map poles, exact and closed-form",
    "splot": "period-doubling threshold against duty, three routes",
    "pole-locus": "ramp slope that places a pole at each real lambda",
    "pdb-boundary": "period-doubling threshold at one point, every route",
    "snb-boundary": "saddle-node threshold at one point, every route",
    "max-on-time": "largest stable on-time at fixed duty",
    "min-ri": "smallest stabilizing current-sense resistance",
    "hb-splot": "period-doubling threshold from the harmonic series",
    "l1": "normalized subharmonic sum against switching frequency",
    "l2": "two-sided subharmonic sum against switching frequency",
    "hplot": "one-sided subharmonic sum against switching frequency",
    "simulate": "cycle-by-cycle time-domain trace",
    "onset": "simulated instability onset by bisection",
    "examples": "re-run the built-in worked cases (exit 4 on regression)",
}

_SWEEPABLE = {"splot", "pole-locus", "hb-splot", "l1", "l2", "hplot",
              "max-on-time", "onset"}
_HARMONIC = {"pdb-boundary", "snb-boundary", "hb-splot", "l1", "l2", "hplot"}
_FORMULA = {"poles", "pdb-boundary", "snb-boundary", "max-on-time", "min-ri"}
_CYCLES = {"simulate", "onset"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cotstab",
        description="Stability boundaries of constant on-time buck converters.",
        epilog="Config files are flat key=value lines with # comments; "
               "values in SI units. Keys: scheme vs vc R L C Rc Ri d T D ma "
               "vo iL0 vC0 Nh ncycles settle D_range lambda_range ma_range "
               "fs_range (ranges as lo:hi:n). Give exactly one of T or D.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True
    for name, func in _DISPATCH.items():
        cmd = sub.add_parser(name, help=_HELP[name])
        cmd.add_argument("--config", metavar="PATH",
                         help="key=value config file")
        cmd.add_argument("--set", action="append", default=[],
                         metavar="KEY=VALUE", help="override one config key")
        cmd.add_argument("--out", metavar="PATH",
                         help="write the table here instead of stdout")
        cmd.add_argument("--format", choices=("csv", "json"), default="csv")
        if name in _SWEEPABLE:
            cmd.add_argument("--sweep", metavar="KEY=lo:hi:n",
                             help="sweep grid (onset: bisection bracket)")
        if name in _HARMONIC:
            cmd.add_argument("--nh", type=int, metavar="N",
                             help="harmonic truncation depth (default 2000)")
        if name in _FORMULA:
            cmd.add_argument("--formula", metavar="ID",
                             help="keep only this catalog formula's row")
        if name in _CYCLES:
            cmd.add_argument("--cycles", type=int, metavar="N",
                             help="simulated switching cycles")
        cmd.set_defaults(func=func)
    return parser


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
        return args.func(args)
    except _USER_ERRORS as exc:
        print(f"cotstab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CotstabError as exc:
        print(f"cotstab: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

"""The four closed-loop workloads and the checks on every timed call.

Each workload is one caller that starts the next call only after the
previous one returns.  Work comes in *rounds*: a fixed list of operation
kinds whose inputs are drawn from ``numpy.random.default_rng([seed,
round])``, so the same seed always gives the same inputs and every round
has the same mix of kinds (a timed pass runs whole rounds, which keeps the
latency percentiles from straddling two kinds of operation at random).
The library only ever receives the generated inputs.

Every operation is checked against a reference that does not come from the
call under test: a frozen value of the package's worked cases
(``cotstab.cases``), or the other analysis route.  A check returns
``(label, error, bound)`` items; ``error`` is a relative disagreement and
the operation fails when any error exceeds its bound or is not finite.
References that need no result of the call are computed with the round's
inputs, outside the timing of any call.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import cotstab.bifurcation as bif
import cotstab.cases as cases
import cotstab.harmonic as hb
import cotstab.models as models
import cotstab.sampled as sampled
import cotstab.simulate  # noqa: F401  (the package attribute is the function)
from cotstab.errors import CotstabError

sim = sys.modules["cotstab.simulate"]
Scheme = models.Scheme
BuckParams = models.BuckParams

# Reference converters of the worked cases and the acceptance tests.
FAST = BuckParams(R=0.5, L=2e-6, C=2e-5, Rc=0.02, vs=5.0)
FAST_D, FAST_T = 1.2e-6, 3e-6
CURRENT = BuckParams(R=10.0, L=3.1e-6, C=3e-4, Rc=4.5e-3, Ri=0.15, vs=13.2)
CUR_D, CUR_T = 0.26e-6, 1.04e-6
VO = 2.0                      # regulated output of the fixed-output family
SCHEMES = (Scheme.V_COTC, Scheme.C_COTC, Scheme.V_COTC_CURRENT_RAMP)


@dataclass
class Op:
    """One timed call, its inputs (for failure reports) and its check."""

    kind: str
    inputs: dict
    call: Callable[[], object]
    check: Callable[[object], list]


@dataclass
class Workload:
    name: str
    seed: int
    rounds: Callable[[int], list] = field(repr=False)
    warm_up: Callable[[], Op] = field(repr=False)
    after: Callable[[], dict] = field(repr=False, default=lambda: {})
    runner: object = None     # the cli workload's subprocess runner


def _rng(seed: int, r: int):
    return np.random.default_rng([seed, r])


def _rel(got: float, ref: float, scale: float | None = None) -> float:
    return abs(got - ref) / abs(scale if scale is not None else ref)


def _frozen(name: str) -> dict:
    """Expected value and tolerance of each check of one worked case."""
    return {c.label: (c.expected, c.atol) for c in cases.run_case(name).checks}


def _frozen_check(label, got, expected, atol):
    if expected == 0.0:
        # no relative scale: pass or fail on the absolute tolerance alone
        return (label, 0.0 if abs(got) <= atol else math.inf, 0.0)
    return (label, _rel(got, expected), atol / abs(expected))


def _operating(p, scheme, d, T, ma=0.0):
    m = models.build_model(p, scheme)
    vc = sampled.consistent_vc(m, models.RampSpec(ma, d), T, p.vs)
    u = np.array([p.vs, vc])
    return m, u, sampled.steady_state_at(m, d, T, u)


# ---------------------------------------------------------------------------
# onset: simulated subharmonic onsets (the oracle route)

# Probe fidelity of the simulated-onset acceptance criterion; the
# escalation ladder is onset_search's default.
ONSET_CYCLES, ONSET_SETTLE = 1500, 300
# Bracket half-widths, relative for the ramp slope and absolute for the
# duty.  Every ramp endpoint lies inside the 1% criterion bound, so each
# ramp probe runs the escalated 12,000-cycle ladder; every duty endpoint
# lies inside the 0.01 bound, far enough out to be decided at 1,500 cycles.
# A search that classifies either endpoint on the wrong side raises.
RAMP_HALF = (0.006, 0.009)
DUTY_HALF = (0.0075, 0.0095)


def onset(seed: int) -> Workload:
    m = models.build_model(FAST, Scheme.V_COTC)
    ma_ref = bif.pdb_boundary_exact(m, FAST.vs, FAST_D, FAST_T)
    duty_ref = bif.pdb_onset_duty(FAST, Scheme.V_COTC, 0.0, FAST_D, VO)
    ramp_family = sim.make_ramp_family(FAST, Scheme.V_COTC, FAST_D, FAST_T)
    duty_family = sim.make_duty_family(FAST, Scheme.V_COTC, FAST_D, VO, 0.0)

    def search(kind, family, lo, hi, ref, tol):
        def call():
            return sim.onset_search(family, lo, hi, cycles=ONSET_CYCLES,
                                    settle=ONSET_SETTLE, iters=0)

        def check(value):
            return [(f"{kind} onset vs exact", _rel(value, ref), tol / ref)]

        return Op(kind, {"lo": lo, "hi": hi}, call, check)

    def ramp_op(a, b):
        return search("ramp", ramp_family, ma_ref * (1.0 - a),
                      ma_ref * (1.0 + b), ma_ref, 0.01 * ma_ref)

    def duty_op(a, b):
        return search("duty", duty_family, duty_ref - a, duty_ref + b,
                      duty_ref, 0.01)

    def rounds(r):
        rng = _rng(seed, r)
        ops = [ramp_op(*rng.uniform(*RAMP_HALF, 2))]
        ops += [duty_op(*rng.uniform(*DUTY_HALF, 2)) for _ in range(4)]
        if r == 0:
            # the widest asymmetry the jitter allows, so the worst error
            # of a run is the same on every seed
            ops[0] = ramp_op(*RAMP_HALF)
            ops[1] = duty_op(*DUTY_HALF)
        return ops

    return Workload("onset", seed, rounds, lambda: duty_op(*DUTY_HALF))


# ---------------------------------------------------------------------------
# harmonic: frequency-domain series on all three schemes

HARMONIC_DEPTHS = (500, 1000, 2000)
# Duties (and switching frequencies, as d/T) come from a fixed grid.  The
# series' truncation error is an erratic function of the duty, so a run's
# worst error would vary with randomly drawn duties; instead every kind of
# series visits every grid duty once per GRID rounds, from a seeded offset
# and in seeded order.  A timed pass runs more than GRID rounds.
DUTY_GRID = np.linspace(0.25, 0.85, 12)
SERIES_TOL = 0.01             # the two-routes worked case's 1%


@dataclass(frozen=True)
class _Converter:
    label: str
    p: BuckParams
    scheme: Scheme
    d: float
    vo: float


HARMONIC_CONVERTERS = (
    _Converter("V_COTC", FAST, Scheme.V_COTC, FAST_D, VO),
    _Converter("V_COTC_CURRENT_RAMP", FAST.with_(Ri=5e-3),
               Scheme.V_COTC_CURRENT_RAMP, FAST_D, VO),
    _Converter("C_COTC", CURRENT, Scheme.C_COTC, CUR_D,
               CURRENT.vs * CUR_D / CUR_T),
)


def _family_exact(cv: _Converter, D: float, kind: str) -> float:
    pd, T = bif.family_point(cv.p, cv.d, cv.vo, D)
    m = models.build_model(pd, cv.scheme)
    fn = bif.pdb_boundary_exact if kind == "pdb" else bif.snb_boundary_exact
    return fn(m, pd.vs, cv.d, T)


def _period_exact(cv: _Converter, m, D: float) -> float:
    return bif.pdb_boundary_exact(m, cv.p.vs, cv.d, cv.d / D)


def harmonic(seed: int) -> Workload:
    grid = np.linspace(DUTY_GRID[0], DUTY_GRID[-1], 61)
    models_ = {cv.label: models.build_model(cv.p, cv.scheme)
               for cv in HARMONIC_CONVERTERS}
    # criterion-10 normalization: disagreement over the curve's largest value
    scales = {}
    for cv in HARMONIC_CONVERTERS:
        for kind in ("pdb", "snb"):
            scales[cv.label, kind] = max(abs(_family_exact(cv, D, kind))
                                         for D in grid)
        m = models_[cv.label]
        scales[cv.label, "freq"] = max(abs(_period_exact(cv, m, D))
                                       for D in grid)

    def make(cv: _Converter, kind: str, nh: int, D: float) -> Op:
        inputs = {"scheme": cv.label, "nh": nh, "duty": D}
        if kind in ("pdb", "snb"):
            pd, T = bif.family_point(cv.p, cv.d, cv.vo, D)
            ref = _family_exact(cv, D, kind)
            scale = scales[cv.label, kind]
            fn = hb.hb_pdb_splot if kind == "pdb" else hb.hb_snb_condition

            def call():
                return fn(pd, cv.scheme, cv.d, T, nh)

            def check(value):
                return [(f"{kind} series vs exact", _rel(value, ref, scale),
                         SERIES_TOL)]
        else:
            T = cv.d / D
            omega = 2.0 * math.pi / T
            ref = _period_exact(cv, models_[cv.label], D)
            scale = scales[cv.label, "freq"]
            if kind == "h":
                def call():
                    return hb.h_plot(omega, cv.p, cv.scheme, cv.d, nh)
                factor = cv.p.vs / T           # Re H = T ma / vs
            else:
                def call():
                    return hb.l2_plot(omega, cv.p, cv.scheme, cv.d, nh)
                factor = cv.p.vs / (2.0 * T)   # Re L2 = 2 T ma / vs

            def check(value):
                return [(f"{kind} sum vs exact",
                         _rel(value.real * factor, ref, scale), SERIES_TOL)]
        return Op(f"{kind}/{cv.label}/nh{nh}", inputs, call, check)

    combos = [(cv, kind, nh) for cv in HARMONIC_CONVERTERS
              for kind in ("pdb", "snb", "h", "l2") for nh in HARMONIC_DEPTHS]

    offsets = _rng(seed, 2 ** 32 - 2).integers(len(DUTY_GRID), size=len(combos))

    def rounds(r):
        ops = [make(*combo, float(DUTY_GRID[(k + r) % len(DUTY_GRID)]))
               for combo, k in zip(combos, offsets)]
        return [ops[i] for i in _rng(seed, r).permutation(len(ops))]

    return Workload("harmonic", seed, rounds,
                    lambda: make(HARMONIC_CONVERTERS[0], "h", 500, 0.4))


# ---------------------------------------------------------------------------
# design: the exact route and the design ladder, as many small calls

BOUNDARY_TOL = 1e-8           # stage-transition vs pole-placement route
EIG_TOL = 1e-3                # eigenvalue search vs boundary formula
DRAWS_PER_ROUND = 12          # plus one of each of the four ladder searches
# Eigenvalue-search bracket around the period-doubling boundary, relative.
# Above the boundary the tracked pair of a voltage-feedback converter can
# turn complex within a few percent, where the search's residual is NaN
# and find_root raises; the upper side stays inside the real branch here,
# and `known_defect` measures the symmetric 10% bracket separately.
EIG_BRACKET = (0.10, 0.005)
DEFECT_ROUNDS = 8


def random_buck(rng) -> BuckParams:
    """Point-of-load component draw (the test suite's property ranges)."""
    return BuckParams(
        R=float(10.0 ** rng.uniform(-0.7, 1.2)),
        L=float(10.0 ** rng.uniform(-6.3, -5.1)),
        C=float(10.0 ** rng.uniform(-5.0, -3.6)),
        Rc=float(10.0 ** rng.uniform(-3.0, -1.6)),
        Ri=float(10.0 ** rng.uniform(-2.0, -0.7)),
        vs=float(rng.uniform(3.0, 24.0)),
    )


def _draw(rng):
    p = random_buck(rng)
    scheme = SCHEMES[rng.integers(len(SCHEMES))]
    T = float(10.0 ** rng.uniform(-6.3, -5.3))
    d = float(rng.uniform(0.15, 0.85)) * T
    return p, scheme, d, T


def _draw_op(p, scheme, d, T) -> Op:
    lo_rel, hi_rel = EIG_BRACKET

    def call():
        m = models.build_model(p, scheme)
        vc = sampled.consistent_vc(m, models.RampSpec(0.0, d), T, p.vs)
        u = np.array([p.vs, vc])
        ss = sampled.steady_state_at(m, d, T, u)
        sampled.linearize(m, ss, 0.0).poles()
        pdb = bif.pdb_boundary_exact(m, p.vs, d, T)
        snb = bif.snb_boundary_exact(m, p.vs, d, T)
        at_m1 = bif.s_exact(m, ss, -1.0)
        at_p1 = bif.s_exact(m, ss, 1.0)
        eig = bif.critical_ramp_eig(m, d, T, u, -1.0, pdb - lo_rel * abs(pdb),
                                    pdb + hi_rel * abs(pdb))
        return pdb, snb, at_m1, at_p1, eig

    def check(out):
        pdb, snb, at_m1, at_p1, eig = out
        return [("pdb boundary vs pole at -1", _rel(pdb, at_m1), BOUNDARY_TOL),
                ("snb boundary vs pole at +1", _rel(snb, at_p1), BOUNDARY_TOL),
                ("eigenvalue search vs boundary", _rel(eig, pdb), EIG_TOL)]

    inputs = {"p": p, "scheme": scheme.name, "d": d, "T": T}
    return Op(f"draw/{scheme.name}", inputs, call, check)


def _pole_slope_family(vo: float, D: float) -> float:
    """Slope placing a pole at -1, fixed-output family, pole-placement route."""
    pd, T = bif.family_point(FAST, FAST_D, vo, D)
    return _pole_slope(pd, Scheme.V_COTC, FAST_D, T)


def _pole_slope(p, scheme, d, T) -> float:
    """Slope placing a cycle-map pole at -1 (pole-placement route)."""
    m, _, ss = _operating(p, scheme, d, T)
    return bif.s_exact(m, ss, -1.0)


def _ladder_ops(rng, frozen) -> list[Op]:
    """The four design-ladder searches on the reference buck.

    With ``frozen`` (a dict of worked-case references) the searches take
    the worked cases' own inputs and are checked against the frozen
    values; otherwise vo and duty are drawn and each result is checked by
    placing a pole at -1 there through the other route.
    """
    v = Scheme.V_COTC
    if frozen:
        vo, d_lo, d_hi, D_on, D_ri = VO, 0.2, 1.0, 0.4, FAST_D / FAST_T
    else:
        vo = float(rng.uniform(1.6, 2.4))
        d_lo, d_hi = float(rng.uniform(0.2, 0.3)), float(rng.uniform(0.9, 1.0))
        D_on, D_ri = (float(x) for x in rng.uniform(0.40, 0.55, 2))
    ops = []

    def onset_duty_check(D):
        if D is None:
            return [("onset duty found", math.inf, 0.0)]
        if frozen:
            return [_frozen_check("onset duty vs frozen", D,
                                  *frozen["no-ramp onset duty"])]
        scale = max(abs(_pole_slope_family(vo, x)) for x in (0.3, 0.6, 0.9))
        return [("onset duty: pole at -1 needs no ramp",
                 _rel(_pole_slope_family(vo, D), 0.0, scale), BOUNDARY_TOL)]

    ops.append(Op("ladder/pdb_onset_duty", {"vo": vo, "D": (d_lo, d_hi)},
                  lambda: bif.pdb_onset_duty(FAST, v, 0.0, FAST_D, vo, d_lo, d_hi),
                  onset_duty_check))

    def range_check(out):
        D, value = out
        if frozen:
            return [_frozen_check("largest slope vs frozen", value,
                                  *frozen["largest required slope"])]
        return [("largest slope vs pole at -1",
                 _rel(value, _pole_slope_family(vo, D)), BOUNDARY_TOL)]

    ops.append(Op("ladder/range_max_pdb_ramp", {"vo": vo, "D": (d_lo, d_hi)},
                  lambda: bif.range_max_pdb_ramp(FAST, v, FAST_D, vo, d_lo, d_hi),
                  range_check))

    on_lo, on_hi = 0.4e-6, 2.8e-6

    def on_time_check(d):
        if frozen:
            return [_frozen_check("max on-time vs frozen", d,
                                  *frozen["exact limit"])]
        scale = max(abs(_pole_slope(FAST, v, x, x / D_on))
                    for x in (on_lo, 0.5 * (on_lo + on_hi), on_hi))
        return [("max on-time: pole at -1 needs no ramp",
                 _rel(_pole_slope(FAST, v, d, d / D_on), 0.0, scale),
                 BOUNDARY_TOL)]

    ops.append(Op("ladder/exact_max_on_time", {"D": D_on},
                  lambda: bif.exact_max_on_time(FAST, v, 0.0, D_on, on_lo, on_hi),
                  on_time_check))

    T_ri = FAST_D / D_ri

    def min_ri_check(ri):
        if frozen:
            return [_frozen_check("min Ri vs frozen", ri, *frozen["min-ri"])]
        scale = abs(_pole_slope(FAST, v, FAST_D, T_ri))
        at = _pole_slope(FAST.with_(Ri=ri), Scheme.V_COTC_CURRENT_RAMP,
                         FAST_D, T_ri)
        return [("min Ri: pole at -1 needs no ramp", _rel(at, 0.0, scale),
                 BOUNDARY_TOL)]

    ops.append(Op("ladder/exact_min_ri", {"D": D_ri},
                  lambda: bif.exact_min_ri(FAST, FAST_D, T_ri), min_ri_check))
    return ops


def design(seed: int) -> Workload:
    worst = _frozen("worst-duty")
    frozen = {
        "no-ramp onset duty": worst["no-ramp onset duty"],
        "largest required slope": worst["largest required slope"],
        "exact limit": _frozen("max-on-time")["exact limit"],
        "min-ri": _frozen("min-ri")["exact limit"],
    }

    def draws(r):
        rng = _rng(seed, r)
        return rng, [_draw(rng) for _ in range(DRAWS_PER_ROUND)]

    def rounds(r):
        rng, drawn = draws(r)
        ops = [_draw_op(*x) for x in drawn]
        # round 0 runs the worked cases' own searches: frozen references
        ops += _ladder_ops(rng, frozen if r == 0 else None)
        return [ops[i] for i in rng.permutation(len(ops))]

    def known_defect():
        """Share of voltage-feedback draws whose symmetric 10% eigenvalue
        bracket makes critical_ramp_eig raise (NaN residual once the tracked
        pair turns complex).  Not a timed operation."""
        tried = raised = 0
        listed = []
        for r in range(DEFECT_ROUNDS):
            for p, scheme, d, T in draws(r)[1]:
                if scheme is not Scheme.V_COTC:
                    continue
                m, u, _ = _operating(p, scheme, d, T)
                pdb = bif.pdb_boundary_exact(m, p.vs, d, T)
                tried += 1
                try:
                    bif.critical_ramp_eig(m, d, T, u, -1.0, pdb - 0.1 * abs(pdb),
                                          pdb + 0.1 * abs(pdb))
                except CotstabError as exc:
                    raised += 1
                    listed.append(f"{p} d={d!r} T={T!r}: "
                                  f"{type(exc).__name__}")
        return {"tried": tried, "raised": raised, "inputs": listed}

    return Workload("design", seed, rounds,
                    lambda: _draw_op(*draws(-1 % (2 ** 32))[1][0]), known_defect)


# ---------------------------------------------------------------------------
# cli: short subcommands, one fresh interpreter each

FAST_SET = ["scheme=V_COTC", "vs=5.0", "R=0.5", "L=2e-6", "C=2e-5",
            "Rc=0.02", "d=1.2e-6"]
CURRENT_SET = ["scheme=C_COTC", "vs=13.2", "R=10.0", "L=3.1e-6", "C=3e-4",
               "Rc=4.5e-3", "Ri=0.15", "d=0.26e-6", "T=1.04e-6", "ma=0"]
CLI_TOL = 1e-9                # CLI round trip of an in-process value


def _sets(items):
    out = []
    for item in items:
        out += ["--set", item]
    return out


def parse_csv(text: str):
    """Metadata dict and rows (column name -> text) of a CSV table."""
    meta, rows, header = {}, [], None
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        elif line:
            rows.append(dict(zip(header, line.split(","))))
    return meta, rows


def _rows_by(rows, key, value):
    return [row for row in rows if row[key] == value]


class CliRunner:
    """Runs one subcommand in a fresh interpreter, traced or not."""

    def __init__(self, root: str):
        self.root = root
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.pop("COTC_LOG", None)
        self.trace_dir: str | None = None
        self.trace_files: list[str] = []

    def run(self, argv):
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "cotstab.cli", *argv]
        else:
            path = os.path.join(self.trace_dir,
                                f"cli-{len(self.trace_files)}.npz")
            self.trace_files.append(path)
            boot = os.path.join(self.root, "perfbench", "cli_boot.py")
            cmd = [sys.executable, boot, path, *argv]
        proc = subprocess.run(cmd, cwd=self.root, env=self.env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()}")
        return proc.stdout


def cli(seed: int, root: str) -> Workload:
    runner = CliRunner(root)
    ramp = _frozen("min-ramp")["boundary formula"]
    placed = _frozen("placed-poles")
    no_ramp = _frozen("no-ramp-poles")
    tangency = _frozen("tangency")["exact threshold"]
    min_ri = _frozen("min-ri")["exact limit"]
    on_time = _frozen("max-on-time")["exact limit"]

    def op(kind, argv, check, inputs=None):
        return Op(f"cli/{kind}", inputs or {"argv": " ".join(argv)},
                  lambda: parse_csv(runner.run([kind, *argv])), check)

    def row_value(rows, key, value, column):
        hits = _rows_by(rows, key, value)
        if len(hits) != 1:
            raise CheckError(f"expected one row with {key}={value}, "
                             f"got {len(hits)}")
        return float(hits[0][column])

    def steady_state(rng):
        ma = float(rng.uniform(0.0, 2000.0))
        _, _, ss = _operating(FAST, Scheme.V_COTC, FAST_D, FAST_T, ma)
        ref = {"iL_cycle_start": ss.x0_0[0], "vC_cycle_start": ss.x0_0[1],
               "iL_switch_off": ss.x0_d[0], "vC_switch_off": ss.x0_d[1],
               "feedback_cycle_end": ss.y_end, "duty": ss.D}

        def check(out):
            _, rows = out
            return [(f"steady-state {k}", _rel(row_value(rows, "quantity", k,
                                                          "value"), v),
                     CLI_TOL) for k, v in ref.items()]

        return op("steady-state", _sets(FAST_SET + ["T=3e-6", f"ma={ma!r}"]),
                  check)

    def poles(rng):
        with_ramp = bool(rng.integers(2))
        ma = 9500.0 if with_ramp else 0.0

        def check(out):
            _, rows = out
            reals = sorted(float(r["real"]) for r in
                           _rows_by(rows, "formula_id", "Eq15"))
            if with_ramp:
                want = [placed["faster pole"], placed["slower pole"]]
                return [_frozen_check("placed pole", g, *w)
                        for g, w in zip(reals, want, strict=True)]
            return [_frozen_check("subharmonic pole", reals[0],
                                  *no_ramp["subharmonic pole"]),
                    _frozen_check("pole at origin", reals[1],
                                  *no_ramp["pole at origin"])]

        return op("poles", _sets(FAST_SET + ["T=3e-6", f"ma={ma!r}"]), check)

    def boundary_rows(rows, ids, frozen, label):
        return [_frozen_check(f"{label} {fid}", row_value(
            rows, "formula_id", fid, "value"), *frozen) for fid in ids]

    def pole_locus(rng):
        n = int(rng.choice([61, 121, 241]))

        def check(out):
            _, rows = out
            hits = [r for r in rows if float(r["lambda"]) == -1.0]
            if len(hits) != 1:
                raise CheckError("no lambda=-1 row")
            return [_frozen_check("locus at -1", float(
                hits[0]["ramp_slope_exact_volts_per_second"]), *ramp)]

        return op("pole-locus", _sets(FAST_SET + ["T=3e-6", "ma=0"])
                  + ["--sweep", f"lambda=-1.5:1.5:{n}"], check)

    def splot(rng):
        n = int(rng.choice([41, 81, 161]))

        def check(out):
            _, rows = out
            hits = [r for r in rows if abs(float(r["duty"]) - 0.4) < 1e-12]
            if len(hits) != 1:
                raise CheckError("no duty=0.4 row")
            return [_frozen_check("splot at duty 0.4", float(
                hits[0]["pdb_exact_volts_per_second"]), *ramp)]

        return op("splot", _sets(FAST_SET + ["T=3e-6"])
                  + ["--sweep", f"D=0.2:0.6:{n}"], check)

    def pdb_boundary(rng):
        nh = int(rng.choice([50, 100, 200]))
        return op("pdb-boundary", _sets(FAST_SET + ["T=3e-6", "ma=0"])
                  + ["--nh", str(nh)],
                  lambda out: boundary_rows(out[1], ("Eq22", "Eq17"), ramp,
                                            "pdb"))

    def snb_boundary(rng):
        nh = int(rng.choice([50, 100, 200]))
        return op("snb-boundary", _sets(CURRENT_SET) + ["--nh", str(nh)],
                  lambda out: boundary_rows(out[1], ("Eq53", "Eq17"),
                                            tangency, "snb"))

    def min_ri_op(rng):
        sets = FAST_SET[1:] + ["scheme=V_COTC_CURRENT_RAMP", "T=3e-6"]
        return op("min-ri", _sets(sets), lambda out: [_frozen_check(
            "min Ri search", row_value(out[1], "route", "search", "value"),
            *min_ri)])

    def max_on_time(rng):
        sets = FAST_SET[:-1] + ["D=0.4", "ma=0"]
        return op("max-on-time", _sets(sets)
                  + ["--sweep", "d=0.4e-6:2.8e-6:2"],
                  lambda out: [_frozen_check("max on-time search", row_value(
                      out[1], "route", "search", "value"), *on_time)])

    def simulate_op(rng):
        ma = float(rng.uniform(9000.0, 10000.0))
        cycles = int(rng.choice([150, 200, 250]))

        def check(out):
            meta, rows = out
            if meta.get("classification") != "PERIOD1":
                raise CheckError(f"classified {meta.get('classification')}")
            return [("settled period vs design period",
                     _rel(float(rows[-1]["Tn_seconds"]), FAST_T), 1e-9)]

        return op("simulate", _sets(FAST_SET + ["T=3e-6", f"ma={ma!r}",
                                          "settle=100"])
                  + ["--cycles", str(cycles)], check)

    def examples(rng):
        def check(out):
            meta, rows = out
            if meta.get("cases_passed") != meta.get("cases_total"):
                raise CheckError(f"{meta.get('cases_passed')} of "
                                 f"{meta.get('cases_total')} cases passed")
            return [_frozen_check(f"{row['case']}: {row['check']}",
                                  float(row["value"]), float(row["expected"]),
                                  float(row["tolerance"])) for row in rows]

        return op("examples", [], check)

    kinds = [steady_state, poles, pole_locus, splot, pdb_boundary,
             snb_boundary, min_ri_op, max_on_time, simulate_op, examples,
             examples]

    def rounds(r):
        rng = _rng(seed, r)
        ops = [make(rng) for make in kinds]
        return [ops[i] for i in rng.permutation(len(ops))]

    return Workload("cli", seed, rounds,
                    lambda: steady_state(_rng(seed, -1 % (2 ** 32))),
                    runner=runner)


class CheckError(Exception):
    """A result that could not be compared with its reference."""


def make(name: str, seed: int, root: str) -> Workload:
    if name == "onset":
        return onset(seed)
    if name == "harmonic":
        return harmonic(seed)
    if name == "design":
        return design(seed)
    if name == "cli":
        return cli(seed, root)
    raise ValueError(f"unknown workload {name!r}")

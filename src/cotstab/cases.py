"""Built-in worked cases with recorded expected results.

Two reference converters exercise every analysis route: a low-voltage
high-ripple buck under output-voltage feedback, and a current-feedback
buck with a large output capacitor.  Expected values were computed with
this package and frozen; the ``examples`` command re-runs them and reports
any regression.  All tolerances are absolute.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bifurcation import (closed_form_pole, critical_ramp_eig, ct_pole_formula,
                          equivalent_ct_pole, exact_max_on_time, exact_min_ri,
                          family_point, max_on_time, min_sense_resistance,
                          pdb_boundary_exact, pdb_onset_duty,
                          range_max_pdb_ramp, s_exact, snb_boundary_approx,
                          snb_boundary_exact)
from .harmonic import hb_pdb_splot, l1_plot
from .models import BuckParams, RampSpec, Scheme, build_model
from .sampled import consistent_steady_state, linearize
from .simulate import estimate_multiplier

__all__ = ["Check", "CaseResult", "CASE_NAMES", "run_case", "run_cases"]


@dataclass(frozen=True)
class Check:
    label: str
    got: float
    expected: float
    atol: float

    @property
    def passed(self) -> bool:
        return math.isfinite(self.got) and abs(self.got - self.expected) <= self.atol


@dataclass(frozen=True)
class CaseResult:
    name: str
    title: str
    checks: tuple[Check, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _fast_buck() -> BuckParams:
    return BuckParams(R=0.5, L=2e-6, C=2e-5, Rc=0.02, vs=5.0)


def _current_buck() -> BuckParams:
    return BuckParams(R=10.0, L=3.1e-6, C=3e-4, Rc=4.5e-3, Ri=0.15, vs=13.2)


_FAST_D, _FAST_T = 1.2e-6, 3e-6
_CUR_D, _CUR_T = 0.26e-6, 1.04e-6


def _operating(p, scheme, d, T, ma):
    m = build_model(p, scheme)
    ss = consistent_steady_state(m, RampSpec(ma, d), T, p.vs)
    return m, ss, linearize(m, ss, ma)


def _sorted_real_poles(lin):
    return np.sort(lin.poles().real)


def case_no_ramp_poles() -> CaseResult:
    """Voltage feedback without a ramp: one pole at 0, one past -1."""
    p = _fast_buck()
    m, ss, lin = _operating(p, Scheme.V_COTC, _FAST_D, _FAST_T, 0.0)
    lo, hi = _sorted_real_poles(lin)
    mult = estimate_multiplier(m, RampSpec(0.0, _FAST_D), ss.u, _FAST_T, ss.x0_0)
    return CaseResult("no-ramp-poles", "pole pair without slope compensation", (
        Check("pole at origin", hi, 0.0, 1e-9),
        Check("subharmonic pole", lo, -1.0512484, 1e-5),
        Check("crude cycle-average pole", closed_form_pole(
            m, p, _FAST_D, _FAST_T, "Eq40"), -1.0192308, 1e-5),
        Check("two-pole reduced-model pole", closed_form_pole(
            m, p, _FAST_D, _FAST_T, "Eq42"), -1.3076923, 1e-5),
        Check("simulated deviation ratio", abs(mult), 1.0512512, 1e-3),
    ))


def case_placed_poles() -> CaseResult:
    """A finite ramp slope pulls both poles inside the unit circle."""
    _, _, lin = _operating(_fast_buck(), Scheme.V_COTC, _FAST_D, _FAST_T, 9500.0)
    lo, hi = _sorted_real_poles(lin)
    return CaseResult("placed-poles", "pole placement by ramp slope", (
        Check("faster pole", lo, -0.4989042, 1e-5),
        Check("slower pole", hi, -0.1987079, 1e-5),
    ))


def case_min_ramp() -> CaseResult:
    """Boundary formula and eigenvalue search agree on the critical slope."""
    p = _fast_buck()
    m, ss, _ = _operating(p, Scheme.V_COTC, _FAST_D, _FAST_T, 0.0)
    direct = pdb_boundary_exact(m, p.vs, _FAST_D, _FAST_T)
    searched = critical_ramp_eig(m, _FAST_D, _FAST_T, ss.u, -1.0, 200.0, 5000.0)
    return CaseResult("min-ramp", "minimum stabilizing ramp slope", (
        Check("boundary formula", direct, 943.41831, 1e-3),
        Check("eigenvalue search", searched, 943.41831, 1e-3),
        Check("route agreement", searched - direct, 0.0, 0.001 * direct),
    ))


def case_worst_duty() -> CaseResult:
    """Ramp sizing over a duty range of a fixed-output design."""
    p = _fast_buck()
    _, smax = range_max_pdb_ramp(p, Scheme.V_COTC, _FAST_D, 2.0, 0.2, 1.0)
    dstar = pdb_onset_duty(p, Scheme.V_COTC, 0.0, _FAST_D, 2.0, 0.2, 1.0)
    return CaseResult("worst-duty", "worst-case duty over an input range", (
        Check("largest required slope", smax, 4216.9916, 0.05),
        Check("no-ramp onset duty", dstar, 0.3603570, 1e-6),
    ))


def case_marginal_point() -> CaseResult:
    """At the onset duty the subharmonic pole sits exactly at -1."""
    p = _fast_buck()
    dstar = pdb_onset_duty(p, Scheme.V_COTC, 0.0, _FAST_D, 2.0, 0.2, 1.0)
    pd, T = family_point(p, _FAST_D, 2.0, dstar)
    _, _, lin = _operating(pd, Scheme.V_COTC, _FAST_D, T, 0.0)
    lo, hi = _sorted_real_poles(lin)
    return CaseResult("marginal-point", "marginal operating point", (
        Check("implied period", T, 3.3300308e-6, 1e-11),
        Check("implied source", pd.vs, 5.5500513, 1e-5),
        Check("pole on the unit circle", lo, -1.0, 1e-6),
        Check("pole at origin", hi, 0.0, 1e-6),
    ))


def case_max_on_time() -> CaseResult:
    """On-time limits: exact search against three closed forms."""
    p = _fast_buck()
    exact = exact_max_on_time(p, Scheme.V_COTC, 0.0, 0.4, 0.4e-6, 2.8e-6)
    f38 = max_on_time(p, Scheme.V_COTC, 0.0, 0.4, "Eq38")
    f39 = max_on_time(p, Scheme.V_COTC, 0.0, 0.4, "Eq39")
    f41 = max_on_time(p, Scheme.V_COTC, 0.0, 0.4, "Eq41", T=_FAST_T)
    best = min((abs(f - exact), name)
               for f, name in ((f38, "Eq38"), (f39, "Eq39"), (f41, "Eq41")))[1]
    return CaseResult("max-on-time", "maximum stable on-time", (
        Check("exact limit", exact, 1.0529607e-6, 1e-11),
        Check("resistance-corrected form", f38, 8.3534137e-7, 1e-12),
        Check("simplest form", f39, 8.0e-7, 1e-12),
        Check("period-aware form", f41, 1.0773109e-6, 1e-12),
        Check("period-aware form is closest", float(best == "Eq41"), 1.0, 0.0),
    ))


def case_min_ri() -> CaseResult:
    """Sense-resistance limits for the added current ramp."""
    p = _fast_buck()
    exact = exact_min_ri(p, _FAST_D, _FAST_T)
    f44 = min_sense_resistance(p, _FAST_D, _FAST_T, "Eq44")
    f45 = min_sense_resistance(p, _FAST_D, _FAST_T, "Eq45")
    f47 = min_sense_resistance(p, _FAST_D, _FAST_T, "Eq47")
    best = min((abs(f - exact), name)
               for f, name in ((f44, "Eq44"), (f45, "Eq45"), (f47, "Eq47")))[1]
    _, _, lin = _operating(p.with_(Ri=exact), Scheme.V_COTC_CURRENT_RAMP,
                           _FAST_D, _FAST_T, 0.0)
    lo, _ = _sorted_real_poles(lin)
    return CaseResult("min-ri", "minimum current-sense resistance", (
        Check("exact limit", exact, 1.8188241e-3, 1e-9),
        Check("series form", f44, 8.3468157e-3, 1e-9),
        Check("simplest form", f45, 1.0e-2, 1e-9),
        Check("two-pole form", f47, 3.3993015e-3, 1e-9),
        Check("two-pole form is closest", float(best == "Eq47"), 1.0, 0.0),
        Check("pole at -1 at the limit", lo, -1.0, 1e-6),
    ))


def case_current_slow_pole() -> CaseResult:
    """Current feedback: a slow real pole near +1 and its ct equivalent."""
    p = _current_buck()
    m, ss, lin = _operating(p, Scheme.C_COTC, _CUR_D, _CUR_T, 0.0)
    lo, hi = _sorted_real_poles(lin)
    mult = estimate_multiplier(m, RampSpec(0.0, _CUR_D), ss.u, _CUR_T, ss.x0_0)
    return CaseResult("current-slow-pole", "slow pole under current feedback", (
        Check("pole at origin", lo, 0.0, 1e-9),
        Check("slow pole", hi, 0.9995085, 1e-6),
        Check("equivalent ct pole", equivalent_ct_pole(hi, _CUR_T), 472.5956, 0.01),
        Check("closed-form ct pole", ct_pole_formula(
            p, Scheme.C_COTC, _CUR_D, _CUR_T, "Eq51"), 419.1662, 1e-3),
        Check("simulated multiplier", mult, 0.9995085, 1e-4),
    ))


def case_tangency() -> CaseResult:
    """Negative ramp slopes reach a saddle-node of the switching cycle."""
    p = _current_buck()
    m, ss, _ = _operating(p, Scheme.C_COTC, _CUR_D, _CUR_T, 0.0)
    exact = snb_boundary_exact(m, p.vs, _CUR_D, _CUR_T)
    via_pole = s_exact(m, ss, 1.0)
    approx = snb_boundary_approx(m, p, _CUR_D, _CUR_T, "Eq56")
    _, _, lin9 = _operating(p, Scheme.C_COTC, _CUR_D, _CUR_T, -1e5)
    lo, hi = _sorted_real_poles(lin9)
    return CaseResult("tangency", "saddle-node reached by negative ramp", (
        Check("exact threshold", exact, -67540.068, 0.01),
        Check("threshold via pole at +1", via_pole, -67540.068, 0.01),
        Check("series threshold", approx, -67538.262, 0.01),
        Check("pole past +1 beyond threshold", hi, 1.0002365, 1e-6),
        Check("companion pole", lo, -1.6748722, 1e-6),
    ))


def case_two_routes() -> CaseResult:
    """Frequency-domain and state-space boundaries agree."""
    p = _fast_buck()
    m = build_model(p, Scheme.V_COTC)   # A, B and Cvec do not depend on vs
    checks = []
    for D in (0.3, 0.4, 0.6):
        pd, T = family_point(p, _FAST_D, 2.0, D)
        exact = pdb_boundary_exact(m, pd.vs, _FAST_D, T)
        hb = hb_pdb_splot(pd, Scheme.V_COTC, _FAST_D, T, 2000)
        checks.append(Check(f"duty {D}: series vs matrix boundary",
                            hb - exact, 0.0, 0.01 * abs(exact)))
    crit = 943.41831
    l1 = l1_plot(2.0 * math.pi / _FAST_T, p, Scheme.V_COTC, crit, _FAST_D, 2000)
    checks.append(Check("normalized balance at the boundary", l1.real, 2.0, 0.02))
    return CaseResult("two-routes", "independent routes to one boundary",
                      tuple(checks))


CASE_NAMES = {
    "no-ramp-poles": case_no_ramp_poles,
    "placed-poles": case_placed_poles,
    "min-ramp": case_min_ramp,
    "worst-duty": case_worst_duty,
    "marginal-point": case_marginal_point,
    "max-on-time": case_max_on_time,
    "min-ri": case_min_ri,
    "current-slow-pole": case_current_slow_pole,
    "tangency": case_tangency,
    "two-routes": case_two_routes,
}


def run_case(name: str) -> CaseResult:
    return CASE_NAMES[name]()


def run_cases() -> list[CaseResult]:
    return [fn() for fn in CASE_NAMES.values()]

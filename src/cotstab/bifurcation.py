"""Stability boundaries, pole placement, and closed-form design rules.

The central object is the pole placement function S: the ramp slope that
puts a real eigenvalue of the cycle-map Jacobian at a chosen location.  Its
slice at -1 is the period-doubling boundary, at +1 the saddle-node
boundary, and as a function of the pole alone it is the pole locus.  Exact
matrix forms are evaluated side by side with the published closed-form
approximations; every approximation carries a stable formula identifier so
emitted results are never ambiguous about their provenance within the
catalog.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (CotstabError, DomainError, PoleEvaluationError,
                     UsageError)
from .linalg import eigenvalues, expm, find_root, solve_linear
from .models import BuckParams, ConverterModel, Scheme, build_model
from .sampled import SteadyState, linearize, steady_state_at

__all__ = [
    "FORMULA_IDS",
    "BoundaryResult",
    "s_exact",
    "s_approx",
    "pdb_boundary_exact",
    "pdb_boundary_approx",
    "pdb_onset_duty",
    "family_point",
    "range_max_pdb_ramp",
    "max_on_time",
    "exact_max_on_time",
    "min_ramp_formula",
    "min_ramp_normalized",
    "min_sense_resistance",
    "exact_min_ri",
    "closed_form_pole",
    "equivalent_ct_pole",
    "ct_pole_formula",
    "snb_boundary_exact",
    "snb_boundary_approx",
    "critical_ramp_eig",
    "sweep",
]

# catalog of formula identifiers attached to emitted results
FORMULA_IDS = frozenset({
    "Eq15", "Eq17", "Eq18", "Eq19", "Eq20", "Eq21", "Eq22", "Eq24", "Eq26",
    "Eq27", "Eq32", "Eq33", "Eq34", "Eq35", "Eq36", "Eq37", "Eq38", "Eq39",
    "Eq40", "Eq41", "Eq42", "Eq43", "Eq44", "Eq45", "Eq46", "Eq47", "Eq49",
    "Eq50", "Eq51", "Eq53", "Eq54", "Eq55", "Eq56",
})


@dataclass(frozen=True)
class BoundaryResult:
    """A critical parameter value tagged with its computation route."""

    kind: str                 # "PDB" or "SNB"
    critical_value: float
    unit: str
    formula_id: str

    def __post_init__(self):
        if self.kind not in ("PDB", "SNB"):
            raise DomainError(f"kind must be PDB or SNB, got {self.kind!r}")
        if self.formula_id not in FORMULA_IDS:
            raise DomainError(f"unknown formula_id {self.formula_id!r}")


def _check_formula(formula: str, allowed):
    if formula not in FORMULA_IDS:
        raise UsageError(f"unknown formula id {formula!r}")
    if formula not in allowed:
        raise UsageError(
            f"formula {formula} does not apply here; expected one of "
            + ", ".join(sorted(allowed)))


def _require_buck(m: ConverterModel, what: str):
    if not m.is_buck_structured:
        raise UsageError(
            f"{what} assumes the buck structure (shared state matrix, "
            "source driving only the on stage)")


def s_exact(m: ConverterModel, ss: SteadyState, lam: float) -> float:
    """Ramp slope that places a real cycle-map eigenvalue at ``lam``.

    Evaluated from the resolvent of the reversed stage product acting on
    the end-of-cycle state velocity.  The value at 0 is 0: without a ramp
    the map Jacobian is always singular.
    """
    lam = float(lam)
    if lam == 0.0:
        return 0.0
    wr = expm(m.A1, ss.d) @ expm(m.A2, ss.T - ss.d)
    eigs = eigenvalues(wr)
    if np.min(np.abs(eigs - lam)) <= 1e-9 * (1.0 + abs(lam)):
        raise PoleEvaluationError(
            f"lambda = {lam!r} lies on the open-loop stage-product spectrum")
    sol = solve_linear(lam * np.eye(m.n) - wr, ss.xdot0_minus)
    return float(lam * (m.Cvec @ sol))


def s_approx(m: ConverterModel, ss: SteadyState, lam: float) -> float:
    """First-order pole locus: S with the stage exponentials linearized.

    Valid when the cycle is short against the natural time constants.  Has
    an artificial pole at lam = 1 that the exact form does not share.
    """
    lam = float(lam)
    if lam == 1.0:
        raise PoleEvaluationError(
            "the linearized pole locus is singular at lambda = 1")
    a_mix = m.A1 * ss.d + m.A2 * (ss.T - ss.d)
    vec = ss.xdot0_minus + (a_mix @ ss.xdot0_minus) / (lam - 1.0)
    return float(lam / (lam - 1.0) * (m.Cvec @ vec))


def _buck_boundary_core(m: ConverterModel, d: float, T: float):
    """Shared factor of the buck PDB/SNB boundaries: (W - V) B11 vs-free."""
    w = expm(m.A1, T)
    v = expm(m.A1, T - d)
    return w, (w - v) @ m.B11


def pdb_boundary_exact(m: ConverterModel, vs: float, d: float, T: float) -> float:
    """Critical ramp slope at the period-doubling boundary (exact).

    The converter is stable against period doubling when the applied ramp
    slope exceeds this value.  Requires T >= d; T = d is the degenerate
    zero-off-time corner, still well defined algebraically.
    """
    _require_buck(m, "the exact period-doubling boundary")
    if not 0.0 < d <= T:
        raise DomainError(f"need 0 < d <= T, got d={d!r}, T={T!r}")
    w, drive = _buck_boundary_core(m, d, T)
    sol = solve_linear(np.eye(m.n) - w @ w, drive)
    return float(m.Cvec @ sol) * vs


def pdb_boundary_approx(m: ConverterModel, vs: float, d: float, T: float,
                        order: str = "full") -> float:
    """Closed-form period-doubling threshold from series expansion.

    ``order="full"`` keeps terms through second order in the cycle length
    (catalog id Eq24); ``order="linear"`` keeps the leading duty-linear
    terms only (id Eq26).  Both assume the natural time constants dominate
    the cycle; accuracy degrades as T grows.
    """
    D = d / T
    cb = float(m.Cvec @ m.B11)
    cab = float(m.Cvec @ (m.A1 @ m.B11))
    if order == "full":
        caab = float(m.Cvec @ (m.A1 @ m.A1 @ m.B11))
        return (-0.5 * D * cb + 0.25 * D * D * cab * T
                + (D - D ** 3) / 12.0 * caab * T * T) * vs
    if order == "linear":
        return 0.5 * D * vs * (0.5 * d * cab - cb)
    raise UsageError(f"order must be 'full' or 'linear', got {order!r}")


def min_ramp_formula(p: BuckParams, scheme: Scheme, d: float, T: float,
                     formula: str) -> float:
    """Closed-form minimum stabilizing ramp slope, per-scheme reductions.

    Eq32 keeps the equivalent-series-resistance correction terms, Eq34
    drops them (valid when the resistance is small against the load and
    the filter).  Eq49 is the current-feedback counterpart; it is negative
    for every duty ratio, so any non-negative ramp suffices there.
    """
    if not isinstance(scheme, Scheme):
        scheme = Scheme.parse(scheme)
    _check_formula(formula, {"Eq32", "Eq34", "Eq49"})
    D = d / T
    rho = p.rho
    if formula in ("Eq32", "Eq34"):
        if scheme is not Scheme.V_COTC:
            raise UsageError(f"formula {formula} applies to V_COTC")
        if formula == "Eq32":
            return (D * p.vs * rho * rho / (2.0 * p.L * p.C)
                    * (0.5 * d * (1.0 - p.Rc ** 2 * p.C / p.L)
                       - p.Rc * p.C / rho))
        return D * p.vs / (2.0 * p.L * p.C) * (0.5 * d - p.Rc * p.C)
    if scheme is not Scheme.C_COTC:
        raise UsageError("formula Eq49 applies to C_COTC")
    return (-D * p.vs * p.Ri / (2.0 * p.L)
            * (d * rho * p.Rc / (2.0 * p.L) + 1.0))


def min_ramp_normalized(p: BuckParams, d: float, T: float,
                        formula: str) -> float:
    """Minimum ramp slope over the ripple-slope scale, closed forms."""
    _check_formula(formula, {"Eq36", "Eq37"})
    D = d / T
    rho = p.rho
    if formula == "Eq36":
        return (rho * rho / 2.0
                * (d / (2.0 * p.Rc * p.C) * (1.0 - p.Rc ** 2 * p.C / p.L)
                   - 1.0 / rho))
    return 0.5 * (d / (2.0 * p.Rc * p.C) - 1.0)


def family_point(p: BuckParams, d: float, vo: float, D: float) -> tuple[BuckParams, float]:
    """Fixed-output operating family: source and period implied by duty.

    With the on-time and the regulated output held fixed, choosing the duty
    ratio fixes the period (d / D) and the source (vo / D).  Returns the
    parameter set with the implied source voltage, and the period.
    """
    if not 0.0 < D <= 1.0:
        raise DomainError(f"duty must lie in (0, 1], got {D!r}")
    return p.with_(vs=vo / D), d / D


def pdb_onset_duty(p: BuckParams, scheme: Scheme, ma: float, d: float,
                   vo: float, D_lo: float = 0.05, D_hi: float = 0.999,
                   grid: int = 400):
    """Duty ratio where period doubling sets in along the fixed-output family.

    Scans the exact boundary minus the applied ramp slope over duty and
    polishes the first sign change.  Returns None when the family never
    crosses the applied slope in the range.
    """
    def residual(D):
        pd, T = family_point(p, d, vo, D)
        mdl = build_model(pd, scheme)
        return pdb_boundary_exact(mdl, pd.vs, d, T) - ma

    ds = np.linspace(D_lo, D_hi, int(grid))
    vals = np.array([residual(x) for x in ds])
    for i in range(len(ds) - 1):
        if vals[i] == 0.0:
            return float(ds[i])
        if vals[i] * vals[i + 1] < 0.0:
            return float(find_root(residual, ds[i], ds[i + 1]))
    return None


def range_max_pdb_ramp(p: BuckParams, scheme: Scheme, d: float, vo: float,
                       D_lo: float, D_hi: float, grid: int = 400) -> tuple[float, float]:
    """Largest exact period-doubling threshold over a duty range.

    A ramp at least this steep stabilizes the whole operating range.  Grid
    scan followed by golden-section refinement to 1e-6 relative in duty.
    Returns (duty at the maximum, threshold value).
    """
    def value(D):
        pd, T = family_point(p, d, vo, D)
        mdl = build_model(pd, scheme)
        return pdb_boundary_exact(mdl, pd.vs, d, T)

    ds = np.linspace(D_lo, D_hi, int(grid))
    vals = np.array([value(x) for x in ds])
    k = int(np.argmax(vals))
    lo = ds[max(k - 1, 0)]
    hi = ds[min(k + 1, len(ds) - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    e = a + invphi * (b - a)
    fc, fe = value(c), value(e)
    while (b - a) > 1e-6 * max(abs(a), abs(b)):
        if fc > fe:
            b, e, fe = e, c, fc
            c = b - invphi * (b - a)
            fc = value(c)
        else:
            a, c, fc = c, e, fe
            e = a + invphi * (b - a)
            fe = value(e)
    dstar = 0.5 * (a + b)
    return float(dstar), float(value(dstar))


_MAX_ON_TIME_SCHEMES = {
    "Eq27": None,  # any scheme; uses the model rows directly
    "Eq33": Scheme.V_COTC,
    "Eq35": Scheme.V_COTC,
    "Eq38": Scheme.V_COTC,
    "Eq39": Scheme.V_COTC,
    "Eq41": Scheme.V_COTC,
    "Eq44": Scheme.V_COTC_CURRENT_RAMP,
    "Eq45": Scheme.V_COTC_CURRENT_RAMP,
}


def max_on_time(p: BuckParams, scheme: Scheme, ma: float, D: float,
                formula: str, T: float | None = None) -> float:
    """Critical on-time from one of the closed-form subharmonic limits.

    Most forms are period-free; the T-dependent form (Eq41) needs the
    nominal period supplied.  The returned value bounds the on-time from
    above when the feedback acceleration term is positive; when that term
    is negative the boundary direction reverses (no upper limit), and the
    returned critical value may be negative or unphysical, by design.
    """
    if not isinstance(scheme, Scheme):
        scheme = Scheme.parse(scheme)
    _check_formula(formula, set(_MAX_ON_TIME_SCHEMES))
    want = _MAX_ON_TIME_SCHEMES[formula]
    if want is not None and scheme is not want:
        raise UsageError(f"formula {formula} applies to {want.name}, "
                         f"not {scheme.name}")
    rho = p.rho
    if formula == "Eq27":
        mdl = build_model(p, scheme)
        cb = float(mdl.Cvec @ mdl.B11)
        cab = float(mdl.Cvec @ (mdl.A1 @ mdl.B11))
        if cab == 0.0:
            raise DomainError("feedback acceleration term is zero; no "
                              "finite on-time boundary")
        return 2.0 * (cb + 2.0 * ma / (D * p.vs)) / cab
    if formula == "Eq33":
        num = rho * p.Rc / p.L + 2.0 * ma / (D * p.vs)
        den = rho * rho / (p.L * p.C) * (1.0 - p.Rc ** 2 * p.C / p.L)
        return 2.0 * num / den
    if formula == "Eq35":
        return 2.0 * (p.Rc * p.C + 2.0 * ma * p.L * p.C / (D * p.vs))
    if formula == "Eq38":
        return 2.0 * p.Rc * p.C / (rho * (1.0 - p.Rc ** 2 * p.C / p.L))
    if formula == "Eq39":
        return 2.0 * p.Rc * p.C
    if formula == "Eq41":
        if T is None:
            raise UsageError("formula Eq41 needs the nominal period T")
        rcx = (p.R + p.Rc) * p.C
        return 2.0 * (p.Rc * p.C + T * T / (4.0 * rcx)) / (1.0 + T / (2.0 * rcx))
    if formula == "Eq44":
        num = (rho * p.Rc + p.Ri) * p.C
        den = rho * rho * (1.0 - p.Rc ** 2 * p.C / p.L
                           - p.Rc * p.C * p.Ri / (rho * p.L))
        return 2.0 * num / den
    # Eq45
    return 2.0 * (p.Rc + p.Ri) * p.C


def exact_max_on_time(p: BuckParams, scheme: Scheme, ma: float, D: float,
                      d_lo: float, d_hi: float, grid: int = 200) -> float:
    """On-time at which the exact period-doubling boundary is crossed.

    Sweeps the on-time at constant duty (period scales with it) and locates
    where the exact boundary equals the applied ramp slope.
    """
    def residual(d):
        mdl = build_model(p, scheme)
        return pdb_boundary_exact(mdl, p.vs, d, d / D) - ma

    ds = np.linspace(d_lo, d_hi, int(grid))
    vals = [residual(x) for x in ds]
    for i in range(len(ds) - 1):
        if vals[i] * vals[i + 1] <= 0.0:
            return float(find_root(residual, ds[i], ds[i + 1]))
    raise DomainError("the period-doubling boundary is not crossed inside "
                      "the on-time bracket")


def min_sense_resistance(p: BuckParams, d: float, T: float,
                         formula: str = "Eq47") -> float:
    """Closed-form minimum current-sense resistance against subharmonics.

    For the voltage-feedback scheme that adds the sensed inductor current
    as its compensating ramp.  Three published forms with different levels
    of approximation; the exact search is :func:`exact_min_ri`.
    """
    _check_formula(formula, {"Eq44", "Eq45", "Eq47"})
    rho = p.rho
    if formula == "Eq47":
        num = 2.0 * d - 4.0 * p.Rc * p.C - rho * T * (T - d) / (p.R * p.C)
        den = 4.0 * p.C + rho * T * (T - d) / p.L
        return num / den
    if formula == "Eq44":
        # on-time form solved for the sense resistance
        num = rho * (0.5 * d * rho * (1.0 - p.Rc ** 2 * p.C / p.L) - p.Rc * p.C)
        den = p.C * (1.0 + d * rho * p.Rc / (2.0 * p.L))
        return num / den
    # Eq45
    return d / (2.0 * p.C) - p.Rc


def exact_min_ri(p: BuckParams, d: float, T: float) -> float:
    """Sense resistance that puts the exact boundary at zero ramp slope.

    The boundary value is affine in the sense resistance (it enters only
    through the feedback row), so two evaluations solve it exactly.
    """
    def boundary(ri):
        pr = p.with_(Ri=ri)
        mdl = build_model(pr, Scheme.V_COTC_CURRENT_RAMP)
        return pdb_boundary_exact(mdl, pr.vs, d, T)

    s0 = boundary(1e-12)          # builder requires a positive Ri
    s1 = boundary(1.0)
    slope = (s1 - s0) / (1.0 - 1e-12)
    if slope == 0.0:
        raise DomainError("boundary does not depend on the sense resistance")
    return float(1e-12 - s0 / slope)


_POLE_FORMULAS = {"Eq20", "Eq21", "Eq40", "Eq42", "Eq46", "Eq50"}


def closed_form_pole(p: BuckParams, scheme: Scheme, d: float, T: float,
                     formula: str) -> float:
    """Nonzero cycle-map pole without a ramp, by closed form.

    The companion pole is always 0 in that case.  Eq20/Eq21 evaluate the
    general first-order expression at the exact orbit; the remaining ids
    are the fully reduced per-scheme expressions.
    """
    if not isinstance(scheme, Scheme):
        scheme = Scheme.parse(scheme)
    _check_formula(formula, _POLE_FORMULAS)
    rho = p.rho
    if formula in ("Eq20", "Eq21"):
        mdl = build_model(p, scheme)
        ss = steady_state_at(mdl, d, T, (p.vs, 0.0))
        if formula == "Eq20":
            v = ss.xdot0_minus
            a_mix = mdl.A1 * d + mdl.A2 * (T - d)
            return 1.0 - float(mdl.Cvec @ (a_mix @ v)) / float(mdl.Cvec @ v)
        x0 = ss.x0_0
        a1x = mdl.A1 @ x0
        return 1.0 - float(mdl.Cvec @ (mdl.A1 @ a1x)) * T / float(mdl.Cvec @ a1x)
    if formula == "Eq40":
        if scheme is not Scheme.V_COTC:
            raise UsageError("formula Eq40 applies to V_COTC")
        gain = 2.0 * rho * T / (2.0 * p.Rc * p.C + T - d)
        return 1.0 + gain * ((T - d) / (2.0 * p.R * p.C) - 1.0)
    if formula == "Eq42":
        if scheme is not Scheme.V_COTC:
            raise UsageError("formula Eq42 applies to V_COTC")
        return 1.0 - 2.0 * T / (2.0 * p.Rc * p.C + T - d)
    if formula == "Eq46":
        if scheme is not Scheme.V_COTC_CURRENT_RAMP:
            raise UsageError("formula Eq46 applies to V_COTC_CURRENT_RAMP")
        gain = 2.0 * rho * T / (2.0 * (p.Rc + p.Ri) * p.C + T - d)
        return 1.0 + gain * ((T - d) / (2.0 * p.R * p.C) - 1.0
                             + p.Ri * (T - d) / (2.0 * p.L))
    # Eq50
    if scheme is not Scheme.C_COTC:
        raise UsageError("formula Eq50 applies to C_COTC")
    return 1.0 - rho * T * (T - d) / (2.0 * p.L * p.C)


def equivalent_ct_pole(lam: float, T: float, method: str = "linear") -> float:
    """Continuous-time pole equivalent to a cycle-map pole.

    ``linear`` uses (1 - lam)/T, the map that reduces the closed-form
    discrete poles to their published continuous counterparts; ``log`` uses
    -ln(lam)/T (requires a positive pole) and differs by under half a
    percent near 1.
    """
    if method == "linear":
        return (1.0 - lam) / T
    if method == "log":
        if lam <= 0.0:
            raise DomainError("log mapping needs a positive pole")
        return -math.log(lam) / T
    raise UsageError(f"method must be 'linear' or 'log', got {method!r}")


def ct_pole_formula(p: BuckParams, scheme: Scheme, d: float, T: float,
                    formula: str) -> float:
    """Closed-form continuous-time pole estimates (catalog Eq43, Eq51)."""
    if not isinstance(scheme, Scheme):
        scheme = Scheme.parse(scheme)
    _check_formula(formula, {"Eq43", "Eq51"})
    if formula == "Eq43":
        if scheme is not Scheme.V_COTC:
            raise UsageError("formula Eq43 applies to V_COTC")
        return 2.0 / (2.0 * p.Rc * p.C + T - d)
    if scheme is not Scheme.C_COTC:
        raise UsageError("formula Eq51 applies to C_COTC")
    return p.rho * (T - d) / (2.0 * p.L * p.C)


def snb_boundary_exact(m: ConverterModel, vs: float, d: float, T: float) -> float:
    """Critical ramp slope at the saddle-node boundary (exact).

    Equals the slope of the end-of-cycle feedback signal with respect to
    the period: at the boundary the feedback curve is tangent to the ramp,
    and the steady cycle appears or disappears.  The same value follows
    from the eigenvalue condition at +1, which tests cross-check.
    """
    _require_buck(m, "the exact saddle-node boundary")
    if not 0.0 < d <= T:
        raise DomainError(f"need 0 < d <= T, got d={d!r}, T={T!r}")
    w, drive = _buck_boundary_core(m, d, T)
    lhs = np.eye(m.n) - w
    sol = solve_linear(lhs, solve_linear(lhs, drive))
    return float(m.Cvec @ sol) * vs


def snb_boundary_approx(m: ConverterModel, p: BuckParams, d: float, T: float,
                        formula: str = "Eq54") -> float:
    """Closed-form saddle-node threshold by series expansion.

    ``Eq54`` is the generic matrix form; ``Eq55``/``Eq56`` are its
    per-scheme scalar reductions.  All are negative for the usual parameter
    ranges, so a non-negative ramp slope rules the bifurcation out.
    """
    _check_formula(formula, {"Eq54", "Eq55", "Eq56"})
    D = d / T
    vs = p.vs
    rho = p.rho
    if formula == "Eq54":
        cb = float(m.Cvec @ m.B11)
        cab = float(m.Cvec @ (m.A1 @ m.B11))
        caib = float(m.Cvec @ solve_linear(m.A1, m.B11))
        return (D / T * caib - 0.5 * D * D * cb
                + (2.0 * D ** 3 - D) / 12.0 * cab * T) * vs
    if formula == "Eq55":
        return vs * (-D / T - D * D * rho * p.Rc / (2.0 * p.L)
                     + (2.0 * D ** 3 - D) / 12.0 * T * rho * rho
                     / (p.L * p.C) * (1.0 - p.Rc ** 2 * p.C / p.L))
    # Eq56
    return vs * p.Ri * (-D / (T * p.R) - D * D / (2.0 * p.L)
                        - (2.0 * D ** 3 - D) / 12.0 * rho * p.Rc * T / p.L ** 2)


def critical_ramp_eig(m: ConverterModel, d: float, T: float, u, target: float,
                      ma_lo: float, ma_hi: float) -> float:
    """Ramp slope that places a cycle-map eigenvalue at the real target.

    Independent search route: sweeps the applied slope and tracks the
    relevant real eigenvalue of the full Jacobian, rather than evaluating
    the boundary formulas.  Used to cross-validate them.
    """
    ss = steady_state_at(m, d, T, u)

    def residual(ma):
        eigs = eigenvalues(linearize(m, ss, ma).Phi)
        real = eigs[np.abs(eigs.imag) < 1e-8 * (1.0 + np.abs(eigs.real))].real
        if real.size == 0:
            return math.nan
        return float(real[np.argmin(np.abs(real - target))] - target)

    return find_root(residual, ma_lo, ma_hi)


def sweep(func, lo: float, hi: float, n: int):
    """Uniform 1-D sweep of a scalar analysis function.

    Evaluation failures (any :class:`CotstabError`) are recorded as NaN
    with the error message kept, never raised, so a sweep across a
    resolvent pole still yields a usable curve; any other exception is a
    bug and propagates.  Returns (xs, ys, notes).
    """
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n!r}")
    xs = np.linspace(lo, hi, int(n)) if n else np.empty(0)
    ys = np.empty_like(xs)
    notes: list[str] = []
    for i, x in enumerate(xs):
        try:
            ys[i] = func(float(x))
        except CotstabError as exc:  # recorded per point by contract
            ys[i] = math.nan
            notes.append(f"x={x:.6g}: {exc}")
    return xs, ys, notes
